//! The resolver cache's TTL rules.
//!
//! TTLs are the control knob of the Meta-CDN: the 15-second TTL on the
//! selector CNAME (`appldnld.g.applimg.com`) is what lets Apple reroute
//! clients between CDNs within seconds, while the 21600-second TTL on the
//! entry CNAME keeps the front of the chain pinned. Each probe's
//! [`InternedResolver`](crate::InternedResolver) therefore owns an
//! [`ICache`](crate::interned::ICache) that stores *absolute expiry
//! instants* in simulated time and replays answers until they lapse,
//! exactly like a stub/recursive resolver would: a stored RRset expires
//! with its minimum record TTL, clamped to [`MAX_CACHE_TTL`]; an empty
//! answer is cached for [`NEGATIVE_TTL`]; and a hit reports each record's
//! remaining lifetime as its TTL.

/// How long a negative (NODATA/NXDOMAIN) result is cached, seconds.
/// RFC 2308 derives this from the SOA; our zones use a flat value.
pub const NEGATIVE_TTL: u32 = 60;

/// The hard ceiling a cache puts on any record TTL (7 days, the classic
/// BIND `max-cache-ttl` default). Every legitimate TTL in the simulated
/// namespace is at most 21600 s, so the clamp only bites adversarially
/// inflated answers — it bounds how long a TTL-inflation attack can pin
/// a poisoned record.
pub const MAX_CACHE_TTL: u32 = 604_800;
