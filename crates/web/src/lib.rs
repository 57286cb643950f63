//! The web content layer: sites, servers, CDNs, HTTP.
//!
//! This crate answers "what is at the other end of the measurement?" for
//! every monitored site:
//!
//! * [`site`] — identity, Alexa-style rank, page sizes per family, where
//!   the site's IPv4 and IPv6 presences live (same AS, a CDN for IPv4 with
//!   the origin serving IPv6, or a 6to4-mapped IPv6 address landing in a
//!   relay AS — the three mechanisms behind the paper's SL/DL split);
//! * [`server`] — per-site server behaviour, including the IPv6 *service*
//!   penalty some servers had in 2011 (the paper's explanation for ASes
//!   whose aggregate IPv6 deficit shows a per-site zero-mode);
//! * [`population`] — the generator: Zipf-ish page sizes, rank-dependent
//!   IPv6 adoption (Fig 3a), CDN fronting, adoption-timeline sampling;
//! * [`http`] — minimal HTTP/1.1 request/response bytes and the paper's 6%
//!   page-identity comparison;
//! * [`zone_build`] — projects the population into the DNS [`ZoneDb`].
//!
//! [`ZoneDb`]: ipv6web_dns::ZoneDb

pub mod http;
pub mod population;
pub mod server;
pub mod site;
pub mod zone_build;

pub use http::{
    build_http_response, build_request, build_response, build_response_header, pages_identical,
    parse_response_len, read_http_request, read_http_request_deadline, status_reason, torn_len,
    truncate_response, write_request, write_response_header, HttpRequest, MAX_REQUEST_BODY,
};
pub use population::{v6_adoption_prob, PopulationConfig};
pub use server::{ServerFault, ServerProfile};
pub use site::{Site, SiteId, SiteV6};
pub use zone_build::build_zone;
