//! Simulated DNS for the monitoring pipeline.
//!
//! The first phase of every site's monitoring round is "a DNS query for the
//! A and AAAA records of the site" (Section 3, Fig 2). This crate provides:
//!
//! * [`zone`] — the authoritative view: which names have A records, which
//!   have AAAA records, and what addresses they resolve to. Sites becoming
//!   IPv6-accessible over the campaign is modeled as AAAA records appearing
//!   at a given week.
//! * [`resolver`] — the stub resolver each vantage point queries. It keeps
//!   no cache, as the paper's monitor reset local caches, so every lookup
//!   reaches the authority; it answers interned [`NameId`]s and allocates
//!   nothing once its buffers have grown.
//! * [`wire`] — an RFC 1035 message codec (header, question, answer with
//!   A/AAAA RDATA) so queries and responses exist as real bytes. A lookup
//!   goes through it wherever it can change the answer: a name the zone
//!   never interned or that does not decode back to its own spelling, and
//!   every DNS64 AAAA query. An interned name in wire form, which the name
//!   table marks when it interns the name, answers straight from its zone
//!   entry.

pub mod names;
pub mod records;
pub mod resolver;
pub mod wire;
pub mod zone;

pub use names::{NameId, NameTable};
pub use records::{Answer, AnswerRecord, Record, RecordData, RecordType};
pub use resolver::{DnsError, Resolver, ResolverStats};
pub use wire::{DnsHeader, DnsMessage, DnsQuestion, DnsRecordWire};
pub use zone::{ZoneDb, ZoneEntry};
