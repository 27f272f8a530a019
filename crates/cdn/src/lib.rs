//! CDN machinery: Apple's cache infrastructure model and third-party CDN
//! pool models.
//!
//! Section 3.3 of the paper reverse-engineers Apple's own CDN from three
//! observables, all of which this crate reproduces as code:
//!
//! * the **server naming scheme** (Table 1): `ab-c-d-e.aaplimg.com` names
//!   like `usnyc3-vip-bx-008.aaplimg.com` — [`naming`] parses and formats
//!   them, so the analysis can rediscover the scheme from scanned PTR data;
//! * the **edge-site structure** inferred from HTTP `Via`/`X-Cache` headers:
//!   a `vip` load balancer fronting four `edge-bx` caches with an `edge-lx`
//!   parent tier — [`site`] implements the request flow and [`http`] renders
//!   the exact header shapes the paper quotes;
//! * the **IP inventory** in `17.0.0.0/8` discovered by scanning — the
//!   [`apple::AppleCdn`] owns the address plan and answers availability
//!   probes and PTR queries.
//!
//! Third-party CDNs (Akamai-like and Limelight-like) are modelled in
//! [`thirdparty`] as *pools that widen under load*: each CDN advertises a
//! baseline set of cache IPs and progressively exposes more — including
//! off-net caches located in other ASes — as its load share grows. That
//! single mechanism is what produces the unique-IP spike of Figure 4, the
//! 408 % Akamai growth of Figure 5, and the overflow of Figure 8.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod apple;
pub mod http;
pub mod lru;
pub mod naming;
pub mod site;
pub mod thirdparty;

pub use apple::{AppleCdn, GslbDirectory, SiteSpec};
pub use http::{HttpRequest, HttpResponse, Verdict, ViaEntry};
pub use lru::LruSet;
pub use naming::{Function, ServerName, SubFunction};
pub use site::{EdgeSite, ServeOutcome};
pub use thirdparty::{OffNetPool, ThirdPartyCdn};
