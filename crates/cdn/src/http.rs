//! Minimal HTTP message model for update downloads.
//!
//! The paper infers the internal structure of Apple's edge sites from two
//! response headers (§3.3):
//!
//! ```text
//! X-Cache: miss, hit-fresh, Hit from cloudfront
//! Via: 1.1 2db316290386960b489a2a16c0a63643.cloudfront.net (CloudFront),
//!  http/1.1 defra1-edge-lx-011.ts.apple.com (ApacheTrafficServer/7.0.0),
//!  http/1.1 defra1-edge-bx-033.ts.apple.com (ApacheTrafficServer/7.0.0)
//! ```
//!
//! This module renders and parses exactly those header shapes so the
//! analysis can re-run the paper's inference on simulated downloads.

use std::fmt;
use std::net::Ipv4Addr;

/// Cache verdict of one hop, as it appears in `X-Cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Object not present at this hop.
    Miss,
    /// Object present and fresh.
    HitFresh,
    /// Upstream origin-shield hit (rendered as `Hit from cloudfront`).
    HitOrigin,
}

impl Verdict {
    fn render(&self) -> &'static str {
        match self {
            Verdict::Miss => "miss",
            Verdict::HitFresh => "hit-fresh",
            Verdict::HitOrigin => "Hit from cloudfront",
        }
    }
}

/// One `Via` hop: protocol, host, and the serving agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViaEntry {
    /// Protocol token, e.g. `http/1.1` or `1.1`.
    pub proto: String,
    /// Host that handled the request.
    pub host: String,
    /// Software agent in parentheses, e.g. `ApacheTrafficServer/7.0.0`.
    pub agent: String,
}

impl ViaEntry {
    /// A hop served by Apache Traffic Server, as Apple's caches report.
    pub fn traffic_server(host: &str) -> ViaEntry {
        ViaEntry {
            proto: "http/1.1".into(),
            host: host.into(),
            agent: "ApacheTrafficServer/7.0.0".into(),
        }
    }

    /// The origin-shield hop in front of Apple's origin.
    pub fn origin_shield(id: &str) -> ViaEntry {
        ViaEntry {
            proto: "1.1".into(),
            host: format!("{id}.cloudfront.net"),
            agent: "CloudFront".into(),
        }
    }

    fn render(&self) -> String {
        format!("{} {} ({})", self.proto, self.host, self.agent)
    }

    fn parse(s: &str) -> Option<ViaEntry> {
        let s = s.trim();
        let (head, agent) = s.rsplit_once(" (")?;
        let agent = agent.strip_suffix(')')?;
        let (proto, host) = head.split_once(' ')?;
        Some(ViaEntry { proto: proto.into(), host: host.into(), agent: agent.into() })
    }
}

/// An update download request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `Host` header, e.g. `appldnld.apple.com`.
    pub host: String,
    /// Request path, e.g. `/ios11.0/iPhone_7Plus_11.0_15A372_Restore.ipsw`.
    pub path: String,
    /// Client source address.
    pub client: Ipv4Addr,
}

/// An update download response with the cache-forensic headers.
///
/// `via` and `x_cache` are ordered **origin-first**, i.e. the entry closest
/// to the origin comes first — matching how proxies append themselves and
/// matching the paper's example (CloudFront, then `edge-lx`, then `edge-bx`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200 for served downloads, 404 for absent objects).
    pub status: u16,
    /// Body size in bytes (the update image size for 200s).
    pub content_length: u64,
    /// `Via` hops, origin-first.
    pub via: Vec<ViaEntry>,
    /// `X-Cache` verdicts, aligned with `via` where applicable.
    pub x_cache: Vec<Verdict>,
}

impl HttpResponse {
    /// Renders the `X-Cache` header value.
    pub fn x_cache_header(&self) -> String {
        self.x_cache.iter().map(Verdict::render).collect::<Vec<_>>().join(", ")
    }

    /// Renders the `Via` header value.
    pub fn via_header(&self) -> String {
        self.via.iter().map(ViaEntry::render).collect::<Vec<_>>().join(",")
    }

    /// Parses a `Via` header value.
    pub fn parse_via(s: &str) -> Option<Vec<ViaEntry>> {
        s.split(',').map(ViaEntry::parse).collect()
    }
}

impl fmt::Display for HttpResponse {
    /// Renders the header block the way a `curl -i` capture would show it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "HTTP/1.1 {}", self.status)?;
        writeln!(f, "Content-Length: {}", self.content_length)?;
        writeln!(f, "X-Cache: {}", self.x_cache_header())?;
        writeln!(f, "Via: {}", self.via_header())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_response() -> HttpResponse {
        HttpResponse {
            status: 200,
            content_length: 2_800_000_000,
            via: vec![
                ViaEntry::origin_shield("2db316290386960b489a2a16c0a63643"),
                ViaEntry::traffic_server("defra1-edge-lx-011.ts.apple.com"),
                ViaEntry::traffic_server("defra1-edge-bx-033.ts.apple.com"),
            ],
            x_cache: vec![Verdict::Miss, Verdict::HitFresh, Verdict::HitOrigin],
        }
    }

    #[test]
    fn renders_the_paper_example_shape() {
        let r = paper_response();
        assert_eq!(r.x_cache_header(), "miss, hit-fresh, Hit from cloudfront");
        assert_eq!(
            r.via_header(),
            "1.1 2db316290386960b489a2a16c0a63643.cloudfront.net (CloudFront),\
http/1.1 defra1-edge-lx-011.ts.apple.com (ApacheTrafficServer/7.0.0),\
http/1.1 defra1-edge-bx-033.ts.apple.com (ApacheTrafficServer/7.0.0)"
        );
    }

    #[test]
    fn via_roundtrip() {
        let r = paper_response();
        let parsed = HttpResponse::parse_via(&r.via_header()).unwrap();
        assert_eq!(parsed, r.via);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(HttpResponse::parse_via("nonsense").is_none());
    }

    #[test]
    fn display_is_headerlike() {
        let text = paper_response().to_string();
        assert!(text.starts_with("HTTP/1.1 200\n"));
        assert!(text.contains("X-Cache: miss, hit-fresh"));
        assert!(text.contains("Via: 1.1 "));
    }
}
