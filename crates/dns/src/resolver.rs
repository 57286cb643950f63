//! Stub resolver.
//!
//! Each vantage point resolves names through a local stub resolver that
//! keeps no cache. The paper's monitor resets local caches before each
//! download (Section 3, Fig 2), and a round probes each site once with one
//! query per type, so no lookup could be answered from one: every lookup
//! reaches the authority, and a probe is a function of its inputs alone.
//!
//! A lookup runs the RFC 1035 codec wherever the codec can change the
//! answer: it encodes a query, decodes it, lets the authority answer the
//! decoded question, encodes the response and decodes it again. That is
//! the path of a name the zone never interned and of an interned name that
//! is not in wire form (an empty label, a label over 63 bytes, more than
//! 32 labels), whose decoded spelling picks the authority's entry, and of
//! every AAAA query of a DNS64 resolver, whose synthesized answer runs
//! through the codec too. An interned name in wire form decodes back to
//! itself, so the round trip could only return its zone entry's answer:
//! such a lookup answers from the entry directly, without reading the
//! name's bytes, and records on `dns.wire_bytes` the bytes the exchange
//! would have carried. Every counter and the histogram read the same on
//! either path.
//!
//! A lookup allocates nothing once the query and response buffers the
//! resolver keeps between lookups have grown to fit.

use crate::names::NameId;
use crate::records::{Answer, RecordData, RecordType};
use crate::wire::{self, MessageWriter, WireMessage, RCODE_NXDOMAIN};
use crate::zone::{ZoneDb, ZoneEntry};
use ipv6web_packet::PacketError;
use serde::{Deserialize, Serialize};

/// Resolver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolverStats {
    /// Lookups that reached the authority: every query but an unencodable
    /// one.
    pub exchanges: u64,
    /// NXDOMAIN answers seen.
    pub nxdomain: u64,
}

/// An injected failure of one resolver exchange, as classified by a
/// fault-aware caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsError {
    /// The authority answered SERVFAIL.
    ServFail,
    /// The query timed out.
    Timeout,
    /// The response arrived torn and failed to parse.
    Truncated,
}

impl std::fmt::Display for DnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnsError::ServFail => write!(f, "SERVFAIL"),
            DnsError::Timeout => write!(f, "query timed out"),
            DnsError::Truncated => write!(f, "truncated response"),
        }
    }
}

impl std::error::Error for DnsError {}

/// The buffers one exchange is encoded into and decoded from, kept between
/// lookups.
#[derive(Debug, Clone, Default)]
struct Wire {
    query: Vec<u8>,
    response: Vec<u8>,
    parsed_query: WireMessage,
    parsed_response: WireMessage,
}

impl Wire {
    /// The rest of the round trip once `query` holds the encoded query:
    /// decodes the query, lets the authority answer the decoded question, encodes
    /// the response and decodes it. `id` is the interned id the query was
    /// made for, if any. Returns the decoded answer, or `None` for
    /// NXDOMAIN.
    fn exchange(
        &mut self,
        zone: &ZoneDb,
        id: Option<NameId>,
        week: u32,
    ) -> Result<Option<Answer>, PacketError> {
        self.parsed_query.decode(&self.query)?;
        let Some((qname, qtype)) = self.parsed_query.questions().next() else {
            return Err(PacketError::BadField { what: "dns query without a question" });
        };
        let tx = self.parsed_query.header().id;
        let (rcode, answer) = match authority(zone, id, qname) {
            Some(entry) => (0, entry.answer(qtype, week)),
            None => (RCODE_NXDOMAIN, Answer::NODATA),
        };
        let mut w = MessageWriter::new(&mut self.response, tx, true, rcode);
        w.question(qname, qtype)?;
        for r in answer.iter() {
            w.answer(qname, r.ttl, r.data)?;
        }
        self.parsed_response.decode(&self.response)?;
        debug_assert_eq!(self.parsed_response.header().id, tx, "transaction id must match");
        ipv6web_obs::observe("dns.wire_bytes", (self.query.len() + self.response.len()) as u64);
        if self.parsed_response.header().rcode == RCODE_NXDOMAIN {
            return Ok(None);
        }
        Ok(Some(self.decoded_answer()))
    }

    /// RFC 6147 AAAA synthesis for the question of the last exchange:
    /// embeds the name's A record in the well-known prefix and runs the
    /// result through its own response encode/decode pass, so synthesized
    /// answers exercise the codec bit-for-bit. Returns `None` when the
    /// name has no A record either — genuine NODATA stays NODATA.
    fn synthesize_aaaa(&mut self, zone: &ZoneDb, id: Option<NameId>, week: u32) -> Option<Answer> {
        let (qname, qtype) = self.parsed_query.questions().next()?;
        let a = authority(zone, id, qname)?.answer(RecordType::A, week);
        let &[r] = &a[..] else { return None };
        let RecordData::V4(v4) = r.data else { return None };
        let synthesized = RecordData::V6(ipv6web_xlat::synthesize(v4));
        let tx = self.parsed_query.header().id;
        let mut w = MessageWriter::new(&mut self.response, tx, true, 0);
        let encoded = w.question(qname, qtype).and_then(|()| w.answer(qname, r.ttl, synthesized));
        if encoded.and_then(|()| self.parsed_response.decode(&self.response)).is_err() {
            ipv6web_obs::inc("dns.codec_errors");
            return None;
        }
        ipv6web_obs::inc("dns64.synthesized");
        ipv6web_obs::observe("dns.wire_bytes", self.response.len() as u64);
        Some(self.decoded_answer())
    }

    /// The answer section of the last decoded response. The authority
    /// never answers with more than one record.
    fn decoded_answer(&self) -> Answer {
        debug_assert!(self.parsed_response.answers().len() <= 1, "one record per family");
        self.parsed_response
            .answers()
            .next()
            .map_or(Answer::NODATA, |(_, ttl, data)| Answer::record(data, ttl))
    }
}

/// The zone entry answering the decoded question `qname`: by interned id
/// when the decoded bytes are the interned name, else by name.
fn authority<'z>(zone: &'z ZoneDb, id: Option<NameId>, qname: &str) -> Option<&'z ZoneEntry> {
    match id {
        Some(id) if zone.name_of(id) == qname => zone.entry_by_id(id),
        _ => zone.entry(qname),
    }
}

/// A stub resolver bound to a [`ZoneDb`] authority. It keeps no cache:
/// it holds a transaction id, its DNS64 flag, its statistics and the
/// codec's buffers.
#[derive(Debug, Clone)]
pub struct Resolver {
    stats: ResolverStats,
    next_id: u16,
    dns64: bool,
    wire: Wire,
}

impl Default for Resolver {
    fn default() -> Self {
        Self::new()
    }
}

impl Resolver {
    /// Fresh resolver.
    pub fn new() -> Self {
        Resolver {
            stats: ResolverStats::default(),
            next_id: 1,
            dns64: false,
            wire: Wire::default(),
        }
    }

    /// Fresh resolver in DNS64 mode (RFC 6147): an AAAA query that would
    /// return NODATA against a v4-only name instead answers with an address
    /// synthesized into the NAT64 well-known prefix `64:ff9b::/96`, built
    /// from the name's A record and passed through the real wire codec
    /// like any authoritative answer. Names with a genuine AAAA are never
    /// rewritten, and NXDOMAIN stays NXDOMAIN.
    pub fn dns64() -> Self {
        Resolver { dns64: true, ..Self::new() }
    }

    /// Whether this resolver synthesizes AAAA answers (DNS64 mode).
    pub fn is_dns64(&self) -> bool {
        self.dns64
    }

    /// Current statistics.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Resolves `(name, qtype)` during campaign `week`. Returns the answer
    /// (empty = NODATA) or `None` for NXDOMAIN. An interned name resolves
    /// exactly as [`Resolver::resolve_id`] does.
    pub fn resolve(
        &mut self,
        zone: &ZoneDb,
        name: &str,
        qtype: RecordType,
        week: u32,
    ) -> Option<Answer> {
        self.lookup(zone, zone.id_of(name), || name, qtype, week)
    }

    /// [`Resolver::resolve`] for a name the zone interned as `id` — the
    /// probe's path. It reads the name's bytes only when the query runs
    /// the codec.
    ///
    /// # Panics
    /// Panics if `id` was not minted by `zone`'s name table.
    pub fn resolve_id(
        &mut self,
        zone: &ZoneDb,
        id: NameId,
        qtype: RecordType,
        week: u32,
    ) -> Option<Answer> {
        self.lookup(zone, Some(id), || zone.name_of(id), qtype, week)
    }

    /// [`Resolver::resolve`] with an optional injected fault. `fault: None`
    /// is exactly `resolve` (same counters); an injected fault fails the
    /// exchange before it reaches the authority, leaving resolver state
    /// untouched so a retry behaves like a fresh query.
    ///
    /// `_now_s`, a simulated time in seconds, is ignored: with no cache,
    /// time cannot change an answer. It stays in the signature because the
    /// study benchmark's probe replay (`studybench/src/replay.rs`) passes
    /// it.
    pub fn resolve_faulted(
        &mut self,
        zone: &ZoneDb,
        name: &str,
        qtype: RecordType,
        week: u32,
        _now_s: u64,
        fault: Option<DnsError>,
    ) -> Result<Option<Answer>, DnsError> {
        injected(fault)?;
        Ok(self.resolve(zone, name, qtype, week))
    }

    /// [`Resolver::resolve_id`] with an optional injected fault, as
    /// [`Resolver::resolve_faulted`].
    pub fn resolve_id_faulted(
        &mut self,
        zone: &ZoneDb,
        id: NameId,
        qtype: RecordType,
        week: u32,
        fault: Option<DnsError>,
    ) -> Result<Option<Answer>, DnsError> {
        injected(fault)?;
        Ok(self.resolve_id(zone, id, qtype, week))
    }

    /// The one resolve core. `id` is the interned id of the name `name`
    /// returns, or `None` for a name the zone never interned; `name` is
    /// called only when the query runs the codec.
    fn lookup<'a>(
        &mut self,
        zone: &'a ZoneDb,
        id: Option<NameId>,
        name: impl FnOnce() -> &'a str,
        qtype: RecordType,
        week: u32,
    ) -> Option<Answer> {
        ipv6web_obs::inc("dns.queries");
        // An interned name in wire form decodes back to itself, so the
        // codec would hand the authority the entry `id` names and carry its
        // answer back unchanged: such a query skips the codec. A DNS64 AAAA
        // query keeps it for the synthesized answer.
        let direct = id.filter(|&id| {
            zone.names().is_wire_form(id) && !(self.dns64 && qtype == RecordType::Aaaa)
        });
        // Any other query is encoded first, because the encoder is where a
        // name's labels are checked (at most 63 bytes each, at most 32
        // deep). A name outside those bounds can never round-trip, so it
        // can never resolve: answer NXDOMAIN-ish before the authority sees
        // it rather than tearing the codec.
        if direct.is_none() {
            let mut query = MessageWriter::new(&mut self.wire.query, self.next_id, false, 0);
            if query.question(name(), qtype).is_err() {
                ipv6web_obs::inc("dns.unencodable_names");
                return None;
            }
        }
        self.stats.exchanges += 1;
        self.next_id = self.next_id.wrapping_add(1).max(1);

        let answer = match direct {
            Some(id) => {
                let answer = zone.entry_by_id(id).map(|entry| entry.answer(qtype, week));
                if ipv6web_obs::enabled() {
                    // a wire-form name encodes into its length plus two
                    // bytes (`wire::wire_form_len`)
                    let name_len = zone.names().name_len(id) + 2;
                    let bytes = wire::exchange_len(name_len, &answer.unwrap_or_default());
                    ipv6web_obs::observe("dns.wire_bytes", bytes as u64);
                }
                answer
            }
            // The codec is exercised on our own well-formed messages, so a
            // failure means a codec bug, not bad input. Degrade to an
            // unanswered query (counted) instead of panicking the whole
            // campaign thread.
            None => match self.wire.exchange(zone, id, week) {
                Ok(answer) => answer,
                Err(_) => {
                    ipv6web_obs::inc("dns.codec_errors");
                    return None;
                }
            },
        };
        let Some(mut answer) = answer else {
            self.stats.nxdomain += 1;
            ipv6web_obs::inc("dns.nxdomain");
            return None;
        };
        if self.dns64 && qtype == RecordType::Aaaa {
            if answer.is_empty() {
                if let Some(synthesized) = self.wire.synthesize_aaaa(zone, id, week) {
                    answer = synthesized;
                }
            } else {
                ipv6web_obs::inc("dns64.native_aaaa_skipped");
            }
        }
        Some(answer)
    }
}

/// Fails the exchange with the injected fault, if any.
fn injected(fault: Option<DnsError>) -> Result<(), DnsError> {
    match fault {
        None => Ok(()),
        Some(err) => {
            ipv6web_obs::inc("dns.faulted");
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneEntry;
    use std::net::Ipv4Addr;

    fn zone() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.insert(
            "a.example",
            ZoneEntry {
                v4: Ipv4Addr::new(192, 0, 2, 1),
                v6: Some("2001:db8::1".parse().unwrap()),
                v6_from_week: 5,
                ttl: 100,
            },
        );
        db
    }

    #[test]
    fn week_gating_visible_through_resolver() {
        let db = zone();
        let mut r = Resolver::new();
        assert!(r.resolve(&db, "a.example", RecordType::Aaaa, 4).unwrap().is_empty());
        assert_eq!(r.resolve(&db, "a.example", RecordType::Aaaa, 5).unwrap().len(), 1);
    }

    #[test]
    fn faulted_exchange_leaves_state_untouched() {
        let db = zone();
        let mut r = Resolver::new();
        assert_eq!(
            r.resolve_faulted(&db, "a.example", RecordType::A, 0, 0, Some(DnsError::ServFail)),
            Err(DnsError::ServFail)
        );
        assert_eq!(r.stats(), ResolverStats::default(), "no counters move on a faulted exchange");
        // retry without fault behaves like a fresh query
        let ok = r.resolve_faulted(&db, "a.example", RecordType::A, 0, 0, None).unwrap();
        assert_eq!(ok.unwrap().len(), 1);
        assert_eq!(r.stats().exchanges, 1);
    }

    #[test]
    fn oversized_label_is_unresolvable_not_a_panic() {
        let db = zone();
        let mut r = Resolver::new();
        let long = format!("{}.example", "x".repeat(64));
        assert_eq!(r.resolve(&db, &long, RecordType::A, 0), None);
        // rejected before the authority saw it
        assert_eq!(r.stats().exchanges, 0);
        assert_eq!(r.stats().nxdomain, 0);
        // a 63-byte label is the legal maximum and goes through the codec
        let max = format!("{}.example", "x".repeat(63));
        assert_eq!(r.resolve(&db, &max, RecordType::A, 0), None, "NXDOMAIN, not a panic");
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn too_many_labels_is_unresolvable_not_a_panic() {
        let db = zone();
        let mut r = Resolver::new();
        let deep = vec!["a"; 33].join(".");
        assert_eq!(r.resolve(&db, &deep, RecordType::A, 0), None);
        assert_eq!(r.stats().exchanges, 0, "never reached the wire");
        let legal = vec!["a"; 32].join(".");
        assert_eq!(r.resolve(&db, &legal, RecordType::A, 0), None, "NXDOMAIN, not a panic");
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn dns64_synthesizes_only_without_native_aaaa() {
        let db = zone();
        let mut r = Resolver::dns64();
        // Before week 5 the name is v4-only: the AAAA answer is synthesized
        // from its A record, carrying the A TTL.
        let ans = r.resolve(&db, "a.example", RecordType::Aaaa, 0).unwrap();
        assert_eq!(ans.len(), 1);
        let RecordData::V6(v6) = ans[0].data else { panic!("expected AAAA data") };
        assert!(ipv6web_xlat::is_synthesized(v6));
        assert_eq!(ipv6web_xlat::extract(v6), Some(Ipv4Addr::new(192, 0, 2, 1)));
        assert_eq!(ans[0].ttl, 100, "synthesized AAAA carries the A TTL");
        // From week 5 a genuine AAAA exists and passes through untouched.
        let native = r.resolve(&db, "a.example", RecordType::Aaaa, 5).unwrap();
        let RecordData::V6(v6) = native[0].data else { panic!("expected AAAA data") };
        assert!(!ipv6web_xlat::is_synthesized(v6), "native AAAA must never be rewritten");
    }

    #[test]
    fn dns64_nxdomain_stays_nxdomain() {
        let db = zone();
        let mut r = Resolver::dns64();
        assert_eq!(r.resolve(&db, "nope.example", RecordType::Aaaa, 0), None);
        assert_eq!(r.stats().nxdomain, 1, "nothing synthesized for a nonexistent name");
    }

    #[test]
    fn dns64_wire_roundtrip_every_v4_form() {
        // Synthesized answers ride the real codec; the embedded address must
        // survive encode/decode bit-exact for edge-case v4 forms.
        let forms = [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(0, 0, 0, 1),
            Ipv4Addr::new(127, 255, 255, 255),
            Ipv4Addr::new(128, 0, 0, 0),
            Ipv4Addr::new(192, 0, 2, 200),
            Ipv4Addr::new(255, 255, 255, 255),
        ];
        let mut db = ZoneDb::new();
        for (i, v4) in forms.iter().enumerate() {
            db.insert(
                format!("v4only{i}.example"),
                ZoneEntry { v4: *v4, v6: None, v6_from_week: 0, ttl: 60 },
            );
        }
        let mut r = Resolver::dns64();
        for (i, v4) in forms.iter().enumerate() {
            let name = format!("v4only{i}.example");
            let ans = r.resolve(&db, &name, RecordType::Aaaa, 0).unwrap();
            assert_eq!(ans.len(), 1, "{name}");
            let RecordData::V6(v6) = ans[0].data else { panic!("expected AAAA data") };
            assert_eq!(ipv6web_xlat::extract(v6), Some(*v4), "{name} must embed bit-exact");
        }
    }

    #[test]
    fn plain_resolver_never_synthesizes() {
        let db = zone();
        let mut r = Resolver::new();
        assert!(!r.is_dns64());
        let ans = r.resolve(&db, "a.example", RecordType::Aaaa, 0).unwrap();
        assert!(ans.is_empty(), "NODATA stays NODATA without DNS64");
    }

    #[test]
    fn interned_id_and_name_resolve_alike() {
        let db = zone();
        let id = db.id_of("a.example").unwrap();
        let (mut by_name, mut by_id) = (Resolver::dns64(), Resolver::dns64());
        for week in [0, 5, 9] {
            for qtype in [RecordType::A, RecordType::Aaaa] {
                assert_eq!(
                    by_id.resolve_id(&db, id, qtype, week),
                    by_name.resolve(&db, "a.example", qtype, week),
                    "{qtype:?} week {week}"
                );
            }
        }
        assert_eq!(by_id.stats(), by_name.stats());
    }

    #[test]
    fn uninterned_spelling_answers_by_its_decoded_name() {
        // "a.example." is not interned, but its query decodes to the
        // interned "a.example": the authority answers it as it answers the
        // interned spelling.
        let db = zone();
        assert_eq!(db.id_of("a.example."), None);
        let mut r = Resolver::new();
        let cold = r.resolve(&db, "a.example.", RecordType::A, 0).unwrap();
        assert_eq!(cold.len(), 1);
        assert_eq!(r.resolve(&db, "a.example", RecordType::A, 0), Some(cold));
    }

    /// A zone of dual-stack and v4-only names, plus interned names with no
    /// entry, which answer NXDOMAIN.
    fn mixed_zone() -> (ZoneDb, Vec<NameId>) {
        let entries = [
            Some((Some("2001:db8::d0"), 3, 120)),
            Some((Some("2001:db8::d1"), 0, 30)),
            Some((None, 0, 300)),
            Some((None, 0, 45)),
            None,
            None,
        ];
        let mut names = crate::names::NameTable::new();
        let ids: Vec<NameId> =
            (0..entries.len()).map(|i| names.intern(&format!("n{i}.example"))).collect();
        let mut db = ZoneDb::with_names(names);
        for (i, (&id, entry)) in ids.iter().zip(entries).enumerate() {
            if let Some((v6, v6_from_week, ttl)) = entry {
                let v4 = Ipv4Addr::new(192, 0, 2, i as u8);
                let v6 = v6.map(|a: &str| a.parse().unwrap());
                db.insert_id(id, ZoneEntry { v4, v6, v6_from_week, ttl });
            }
        }
        (db, ids)
    }

    proptest::proptest! {
        /// The direct path agrees with the codec at every step. One
        /// resolver is queried by interned id, which answers wire-form names
        /// from the zone entry (DNS64 AAAA queries aside); the other by the
        /// same name plus a trailing dot, a spelling that is not interned
        /// and so runs the codec and decodes to the interned name.
        #[test]
        fn direct_path_matches_the_codec(
            ops in proptest::collection::vec(
                (0usize..6, proptest::prelude::any::<bool>(), 0u32..8),
                1..60,
            ),
        ) {
            let (db, ids) = mixed_zone();
            for fresh in [Resolver::new as fn() -> Resolver, Resolver::dns64] {
                let (mut by_id, mut by_codec) = (fresh(), fresh());
                for &(n, aaaa, week) in &ops {
                    let qtype = if aaaa { RecordType::Aaaa } else { RecordType::A };
                    let spelled = format!("{}.", db.name_of(ids[n]));
                    proptest::prop_assert_eq!(db.id_of(&spelled), None);
                    proptest::prop_assert_eq!(
                        by_id.resolve_id(&db, ids[n], qtype, week),
                        by_codec.resolve(&db, &spelled, qtype, week),
                        "n{} {:?} week {}", n, qtype, week
                    );
                    proptest::prop_assert_eq!(by_id.stats(), by_codec.stats());
                }
            }
        }
    }
}
