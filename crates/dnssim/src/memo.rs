//! Per-round memoization of scope-stable zone answers.
//!
//! Within one campaign round every query carries the same `now`, so a zone
//! answer that depends only on the client's *scope* — nothing
//! ([`PolicyScope::Global`]) or the client's city
//! ([`PolicyScope::City`]) — is identical for every probe sharing that
//! scope. An [`IRoundMemo`](crate::IRoundMemo) caches those answers for
//! the duration of a round so probes behind the same effective resolver
//! scope stop repeating identical delegation walks. Policies scoped
//! [`Client`](PolicyScope::Client) (selectors, GSLBs) are never memoized,
//! and the resolver consults its fault and mutation hooks *before* the
//! memo, so a query either hook perturbs bypasses memoization entirely:
//! resolution results are bit-identical with the memo on or off.
//!
//! A memo key is `(name, qtype, MemoScope, now)`. The time component
//! makes the memo airtight under retries — a backoff-shifted retry
//! queries at a later instant and gets its own key rather than replaying
//! (or seeding) another instant's answer, so memo contents never depend
//! on the order shards interleave probes and their retries.
//!
//! The memo is shard-local in the parallel engine — each shard owns one —
//! so raw hit counts would vary with the thread count (a key's first
//! lookup *per shard* is a miss).
//! [`IRoundMemo::counts_into`](crate::IRoundMemo::counts_into) therefore
//! exports per-key lookup counts instead; the engine merges them across
//! shards and derives the canonical, thread-count-independent counters
//! `lookups = Σ counts` and `hits = lookups − distinct keys` (what a
//! single shard would have observed).

use crate::zone::PolicyScope;
use mcdn_geo::Locode;

/// The client-scope component of a memo key, derived from a
/// [`PolicyScope`] declaration plus the querying context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoScope {
    /// Same answer for every client.
    Global,
    /// Same answer for every client in this city.
    City(Locode),
}

impl MemoScope {
    /// The memo scope for an answer declared with `scope`, as seen from a
    /// client in `locode`; `None` for [`PolicyScope::Client`] (never
    /// memoizable).
    pub fn for_query(scope: PolicyScope, locode: Locode) -> Option<MemoScope> {
        match scope {
            PolicyScope::Global => Some(MemoScope::Global),
            PolicyScope::City => Some(MemoScope::City(locode)),
            PolicyScope::Client => None,
        }
    }
}
