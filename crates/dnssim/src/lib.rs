//! Simulated DNS: authoritative zones, dynamic mapping policies, and a
//! recursive resolver with a TTL-honouring cache.
//!
//! The Apple Meta-CDN's request mapping (§3.2 of the paper) is "location-
//! based dynamic DNS resolution": a chain of CNAMEs across several operators'
//! zones (`apple.com` → `akadns.net` → `applimg.com` → CDN-specific names),
//! where some hops are static records and others are computed per request by
//! a mapping function (geo split, CDN selector, GSLB). This crate models
//! exactly that:
//!
//! * [`Zone`] holds static records *and* [`MappingPolicy`] hooks at
//!   individual names — a policy sees the [`QueryContext`] (client location,
//!   simulated time) and decides the answer ([`PolicyAnswer`]: a declared
//!   CNAME target or a set of addresses), which is how GSLB and the
//!   Meta-CDN selector are implemented by `metacdn`.
//! * [`Namespace`] is the set of all authoritative zones; it answers one
//!   question at a time like the authoritative side of the real DNS
//!   ([`serve`] puts it behind wire-format messages, and
//!   [`IterativeResolver`] walks its delegations from the root).
//! * [`CompiledNamespace`] interns a namespace once, and
//!   [`InternedResolver`] chases CNAME chains across its zones with a
//!   per-resolver cache honouring TTLs — probes each own a resolver, so TTL
//!   effects (the 15 s selector TTL vs the 21600 s entry TTL) shape what a
//!   probe re-resolves every measurement round, exactly as on RIPE Atlas.
//!   Fault ([`InternedFaultModel`]) and answer-mutation
//!   ([`InternedMutationModel`]) hooks and a per-round memo
//!   ([`IRoundMemo`]) ride along.
//! * Every resolution leaves an [`ITrace`] recording each CNAME edge with
//!   its TTL — the raw material for regenerating Figure 2 — which
//!   [`CompiledNamespace::materialize_trace`] spells out as a
//!   [`ResolutionTrace`]; [`resolve_cold`] does both for one-off lookups.
//!
//! A deliberate simplification: the real mapping infers client location from
//! the recursive resolver's IP (plus EDNS Client Subnet); our probes query
//! with an explicit [`QueryContext`] carrying their location. Both designs
//! give the mapping function the same input signal, so mapping behaviour is
//! unaffected; what is *not* modelled is mis-mapping via distant third-party
//! resolvers, which the paper also avoids (Atlas probes use local resolvers).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod context;
pub mod faults;
pub mod interned;
pub mod iterative;
pub mod memo;
pub mod mutation;
pub mod resolver;
pub mod wire;
pub mod zone;

pub use cache::MAX_CACHE_TTL;
pub use context::QueryContext;
pub use faults::UpstreamFault;
pub use interned::{
    resolve_cold, CompiledNamespace, ICacheExportEntry, IRData, IRecord,
    IResolutionError, IRoundMemo, ITrace, ITraceStep, InternedFaultModel, InternedResolver,
    NoInternedFaults, ResolveScratch, SharedMemoKey, SharedName,
};
pub use iterative::{IterativeResolver, IterativeOutcome};
pub use memo::MemoScope;
pub use mutation::{
    BailiwickPolicy, ITamper, InternedMutationModel, NoInternedMutations, apply_itamper,
    attacker_ns, attacker_owner,
};
pub use resolver::{ResolutionTrace, TraceStep};
pub use wire::serve;
pub use zone::{MappingPolicy, Namespace, PolicyAnswer, PolicyScope, Zone, ZoneAnswer};
