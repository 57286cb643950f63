//! Caching stub resolver.
//!
//! Each vantage point resolves names through a local caching resolver; the
//! monitor's randomized query order means cache state varies round to
//! round. A cache miss runs the RFC 1035 codec wherever the codec can
//! change the answer: it encodes a query, decodes it, lets the authority
//! answer the decoded question, encodes the response and decodes it
//! again. That is the path of a name the zone never interned and of an
//! interned name that is not in wire form (an empty label, a label over 63
//! bytes, more than 32 labels), whose decoded spelling picks the
//! authority's entry, and of every AAAA query of a DNS64 resolver, whose
//! synthesized answer runs through the codec too. An interned name in wire
//! form decodes back to itself, so the round trip could only return its
//! zone entry's answer: such a miss answers from the entry directly and
//! records on `dns.wire_bytes` the bytes the exchange would have carried.
//! Every counter and the histogram read the same on either path.
//!
//! Once warm, a lookup allocates nothing. The cache is keyed by the zone's
//! interned [`NameId`]s under a multiplicative hash (ids are dense `u32`s,
//! so SipHash buys nothing), its lines hold an inline [`Answer`] with no
//! heap data, and the query and response are encoded into, and decoded
//! from, buffers the resolver keeps between lookups. Only a name the zone
//! never interned takes a cold path that keys its cache lines by an owned
//! copy of the name. Because the keys are one zone's ids, a resolver
//! serves one zone.

use crate::names::NameId;
use crate::records::{Answer, RecordData, RecordType};
use crate::wire::{self, MessageWriter, WireMessage, RCODE_NXDOMAIN};
use crate::zone::{ZoneDb, ZoneEntry};
use ipv6web_packet::PacketError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Resolver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolverStats {
    /// Queries answered from cache.
    pub cache_hits: u64,
    /// Queries forwarded to the authority.
    pub cache_misses: u64,
    /// NXDOMAIN answers seen.
    pub nxdomain: u64,
}

#[derive(Debug, Clone, Copy)]
struct CacheLine {
    answer: Answer,
    expires_at: u64,
}

/// What the caches are keyed by: an interned name's id, or — on the cold
/// path, for a name the zone never interned — the name itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NameKey {
    Id(NameId),
    Cold(Box<str>),
}

/// FxHash-style multiplicative hasher for the cache keys. It offers no
/// protection against crafted collisions, which is sound here because no
/// key comes from outside the program: ids are the zone's, and cold names
/// are the ones the caller asks for.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Negative-cache TTL for NXDOMAIN answers (RFC 2308 suggests the SOA
/// minimum; the simulated zones use a flat value).
const NEGATIVE_TTL_S: u64 = 300;

/// Cache TTL of a NODATA answer, which carries no record TTL of its own.
const NODATA_TTL_S: u32 = 60;

/// An injected failure of one resolver exchange, as classified by a
/// fault-aware caller. Nothing is cached for a failed exchange.
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

/// A caching stub resolver bound to a [`ZoneDb`] authority.
#[derive(Debug, Clone)]
pub struct Resolver {
    cache: IdMap<(NameKey, RecordType), CacheLine>,
    negative: IdMap<NameKey, u64>,
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
    /// Fresh resolver with an empty cache.
    pub fn new() -> Self {
        Resolver {
            cache: IdMap::default(),
            negative: IdMap::default(),
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

    /// Number of live cache lines (expired lines may still be counted until
    /// touched).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Resolves `(name, qtype)` at simulated time `now_s` (seconds) during
    /// campaign `week`. Returns the answer (empty = NODATA) or `None` for
    /// NXDOMAIN. An interned name resolves exactly as [`Resolver::resolve_id`]
    /// does; any other name takes the allocating cold path.
    pub fn resolve(
        &mut self,
        zone: &ZoneDb,
        name: &str,
        qtype: RecordType,
        week: u32,
        now_s: u64,
    ) -> Option<Answer> {
        self.lookup(zone, zone.id_of(name), name, qtype, week, now_s)
    }

    /// [`Resolver::resolve`] for a name the zone interned as `id` — the
    /// probe's path, which never allocates once the resolver is warm.
    ///
    /// # Panics
    /// Panics if `id` was not minted by `zone`'s name table.
    pub fn resolve_id(
        &mut self,
        zone: &ZoneDb,
        id: NameId,
        qtype: RecordType,
        week: u32,
        now_s: u64,
    ) -> Option<Answer> {
        self.lookup(zone, Some(id), zone.name_of(id), qtype, week, now_s)
    }

    /// [`Resolver::resolve`] with an optional injected fault. `fault: None`
    /// is exactly `resolve` (same cache traffic, same counters); an
    /// injected fault fails the exchange before it reaches cache or
    /// authority, leaving resolver state untouched so a retry behaves like
    /// a fresh query.
    pub fn resolve_faulted(
        &mut self,
        zone: &ZoneDb,
        name: &str,
        qtype: RecordType,
        week: u32,
        now_s: u64,
        fault: Option<DnsError>,
    ) -> Result<Option<Answer>, DnsError> {
        injected(fault)?;
        Ok(self.resolve(zone, name, qtype, week, now_s))
    }

    /// [`Resolver::resolve_id`] with an optional injected fault, as
    /// [`Resolver::resolve_faulted`].
    pub fn resolve_id_faulted(
        &mut self,
        zone: &ZoneDb,
        id: NameId,
        qtype: RecordType,
        week: u32,
        now_s: u64,
        fault: Option<DnsError>,
    ) -> Result<Option<Answer>, DnsError> {
        injected(fault)?;
        Ok(self.resolve_id(zone, id, qtype, week, now_s))
    }

    /// The one resolve core. `id` is `name`'s interned id, or `None` for
    /// a name the zone never interned.
    fn lookup(
        &mut self,
        zone: &ZoneDb,
        id: Option<NameId>,
        name: &str,
        qtype: RecordType,
        week: u32,
        now_s: u64,
    ) -> Option<Answer> {
        ipv6web_obs::inc("dns.queries");
        // An interned name in wire form decodes back to itself, so the
        // codec would hand the authority the entry `id` names and carry its
        // answer back unchanged: such a miss skips the codec. A DNS64 AAAA
        // query keeps it for the synthesized answer.
        let direct = match id {
            Some(id) if !(self.dns64 && qtype == RecordType::Aaaa) => {
                wire::wire_form_len(name).map(|name_len| (id, name_len))
            }
            _ => None,
        };
        // Any other query is encoded before the cache is consulted, because
        // the encoder is where a name's labels are checked (at most 63
        // bytes each, at most 32 deep). A name outside those bounds can
        // never round-trip, so it can never resolve: answer NXDOMAIN-ish
        // before any cache traffic rather than tearing the codec. The
        // bytes only go on the wire on a miss; a hit leaves the
        // transaction id unused.
        if direct.is_none() {
            let mut query = MessageWriter::new(&mut self.wire.query, self.next_id, false, 0);
            if query.question(name, qtype).is_err() {
                ipv6web_obs::inc("dns.unencodable_names");
                return None;
            }
        }
        let key = match id {
            Some(id) => NameKey::Id(id),
            None => NameKey::Cold(name.into()),
        };
        // RFC 2308 negative caching: a fresh NXDOMAIN answers any qtype.
        if let Some(&until) = self.negative.get(&key) {
            if until > now_s {
                self.stats.cache_hits += 1;
                ipv6web_obs::inc("dns.cache_hits");
                return None;
            }
            self.negative.remove(&key);
        }
        let line_key = (key, qtype);
        if let Some(line) = self.cache.get(&line_key) {
            if line.expires_at > now_s {
                self.stats.cache_hits += 1;
                ipv6web_obs::inc("dns.cache_hits");
                return Some(line.answer);
            }
            self.cache.remove(&line_key);
        }
        self.stats.cache_misses += 1;
        ipv6web_obs::inc("dns.cache_misses");
        self.next_id = self.next_id.wrapping_add(1).max(1);

        let answer = match direct {
            Some((id, name_len)) => {
                let answer = zone.entry_by_id(id).map(|entry| entry.answer(qtype, week));
                if ipv6web_obs::enabled() {
                    let bytes = wire::exchange_len(name_len, &answer.unwrap_or_default());
                    ipv6web_obs::observe("dns.wire_bytes", bytes as u64);
                }
                answer
            }
            // The codec is exercised on our own well-formed messages, so a
            // failure means a codec bug, not bad input. Degrade to an
            // unanswered query (counted, uncached) instead of panicking the
            // whole campaign thread.
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
            self.negative.insert(line_key.0, now_s + NEGATIVE_TTL_S);
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
        let ttl = answer.first().map_or(NODATA_TTL_S, |r| r.ttl);
        self.cache.insert(line_key, CacheLine { answer, expires_at: now_s + u64::from(ttl) });
        Some(answer)
    }

    /// Drops all cached entries — the monitor's "proper resetting to avoid
    /// local caching effects" between repeated downloads. The caches keep
    /// their capacity, so refilling them allocates nothing.
    pub fn flush(&mut self) {
        self.cache.clear();
        self.negative.clear();
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
    fn miss_then_hit() {
        let db = zone();
        let mut r = Resolver::new();
        let a1 = r.resolve(&db, "a.example", RecordType::A, 0, 1000).unwrap();
        assert_eq!(a1.len(), 1);
        assert_eq!(r.stats().cache_misses, 1);
        let a2 = r.resolve(&db, "a.example", RecordType::A, 0, 1050).unwrap();
        assert_eq!(a2, a1);
        assert_eq!(r.stats().cache_hits, 1);
    }

    #[test]
    fn ttl_expiry_causes_refetch() {
        let db = zone();
        let mut r = Resolver::new();
        r.resolve(&db, "a.example", RecordType::A, 0, 1000);
        // ttl 100 => expires at 1100
        r.resolve(&db, "a.example", RecordType::A, 0, 1100);
        assert_eq!(r.stats().cache_misses, 2);
        assert_eq!(r.stats().cache_hits, 0);
    }

    #[test]
    fn nxdomain_negatively_cached() {
        let db = zone();
        let mut r = Resolver::new();
        assert_eq!(r.resolve(&db, "nope.example", RecordType::A, 0, 0), None);
        assert_eq!(r.stats().nxdomain, 1);
        assert_eq!(r.cache_len(), 0, "no positive cache line");
        // the negative answer is served from cache within its TTL...
        assert_eq!(r.resolve(&db, "nope.example", RecordType::A, 0, 100), None);
        assert_eq!(r.resolve(&db, "nope.example", RecordType::Aaaa, 0, 100), None);
        assert_eq!(r.stats().nxdomain, 1, "authority contacted only once");
        assert_eq!(r.stats().cache_hits, 2);
        // ...and re-resolved after expiry
        assert_eq!(r.resolve(&db, "nope.example", RecordType::A, 0, 301), None);
        assert_eq!(r.stats().nxdomain, 2);
    }

    #[test]
    fn negative_cache_cleared_by_flush() {
        let db = zone();
        let mut r = Resolver::new();
        r.resolve(&db, "nope.example", RecordType::A, 0, 0);
        r.flush();
        r.resolve(&db, "nope.example", RecordType::A, 0, 1);
        assert_eq!(r.stats().nxdomain, 2, "flush must drop negative entries too");
    }

    #[test]
    fn nodata_cached_as_empty() {
        let db = zone();
        let mut r = Resolver::new();
        // AAAA before week 5: NODATA
        let ans = r.resolve(&db, "a.example", RecordType::Aaaa, 0, 0).unwrap();
        assert!(ans.is_empty());
        // cached: second query is a hit even though empty
        r.resolve(&db, "a.example", RecordType::Aaaa, 0, 10).unwrap();
        assert_eq!(r.stats().cache_hits, 1);
    }

    #[test]
    fn week_gating_visible_through_resolver() {
        let db = zone();
        let mut r = Resolver::new();
        assert!(r.resolve(&db, "a.example", RecordType::Aaaa, 4, 0).unwrap().is_empty());
        r.flush();
        assert_eq!(r.resolve(&db, "a.example", RecordType::Aaaa, 5, 0).unwrap().len(), 1);
    }

    #[test]
    fn flush_clears_cache() {
        let db = zone();
        let mut r = Resolver::new();
        r.resolve(&db, "a.example", RecordType::A, 0, 0);
        assert_eq!(r.cache_len(), 1);
        r.flush();
        assert_eq!(r.cache_len(), 0);
        r.resolve(&db, "a.example", RecordType::A, 0, 1);
        assert_eq!(r.stats().cache_misses, 2);
    }

    #[test]
    fn faulted_exchange_leaves_state_untouched() {
        let db = zone();
        let mut r = Resolver::new();
        assert_eq!(
            r.resolve_faulted(&db, "a.example", RecordType::A, 0, 0, Some(DnsError::ServFail)),
            Err(DnsError::ServFail)
        );
        assert_eq!(r.cache_len(), 0);
        assert_eq!(r.stats(), ResolverStats::default(), "no counters move on a faulted exchange");
        // retry without fault behaves like a fresh query
        let ok = r.resolve_faulted(&db, "a.example", RecordType::A, 0, 0, None).unwrap();
        assert_eq!(ok.unwrap().len(), 1);
        assert_eq!(r.stats().cache_misses, 1);
    }

    #[test]
    fn oversized_label_is_unresolvable_not_a_panic() {
        let db = zone();
        let mut r = Resolver::new();
        let long = format!("{}.example", "x".repeat(64));
        assert_eq!(r.resolve(&db, &long, RecordType::A, 0, 0), None);
        // rejected before the cache or authority saw it
        assert_eq!(r.cache_len(), 0);
        assert_eq!(r.stats().cache_misses, 0);
        assert_eq!(r.stats().nxdomain, 0);
        // a 63-byte label is the legal maximum and goes through the codec
        let max = format!("{}.example", "x".repeat(63));
        assert_eq!(r.resolve(&db, &max, RecordType::A, 0, 0), None, "NXDOMAIN, not a panic");
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn too_many_labels_is_unresolvable_not_a_panic() {
        let db = zone();
        let mut r = Resolver::new();
        let deep = vec!["a"; 33].join(".");
        assert_eq!(r.resolve(&db, &deep, RecordType::A, 0, 0), None);
        assert_eq!(r.cache_len(), 0);
        assert_eq!(r.stats().cache_misses, 0, "never reached the wire");
        let legal = vec!["a"; 32].join(".");
        assert_eq!(r.resolve(&db, &legal, RecordType::A, 0, 0), None, "NXDOMAIN, not a panic");
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn dns64_synthesizes_only_without_native_aaaa() {
        let db = zone();
        let mut r = Resolver::dns64();
        // Before week 5 the name is v4-only: the AAAA answer is synthesized
        // from its A record, carrying the A TTL.
        let ans = r.resolve(&db, "a.example", RecordType::Aaaa, 0, 0).unwrap();
        assert_eq!(ans.len(), 1);
        let RecordData::V6(v6) = ans[0].data else { panic!("expected AAAA data") };
        assert!(ipv6web_xlat::is_synthesized(v6));
        assert_eq!(ipv6web_xlat::extract(v6), Some(Ipv4Addr::new(192, 0, 2, 1)));
        assert_eq!(ans[0].ttl, 100, "synthesized AAAA carries the A TTL");
        // Cached like any answer: the second query is a hit.
        let again = r.resolve(&db, "a.example", RecordType::Aaaa, 0, 50).unwrap();
        assert_eq!(again, ans);
        assert_eq!(r.stats().cache_hits, 1);
        // From week 5 a genuine AAAA exists and passes through untouched.
        r.flush();
        let native = r.resolve(&db, "a.example", RecordType::Aaaa, 5, 0).unwrap();
        let RecordData::V6(v6) = native[0].data else { panic!("expected AAAA data") };
        assert!(!ipv6web_xlat::is_synthesized(v6), "native AAAA must never be rewritten");
    }

    #[test]
    fn dns64_nxdomain_stays_nxdomain() {
        let db = zone();
        let mut r = Resolver::dns64();
        assert_eq!(r.resolve(&db, "nope.example", RecordType::Aaaa, 0, 0), None);
        assert_eq!(r.stats().nxdomain, 1);
        assert_eq!(r.cache_len(), 0, "nothing synthesized for a nonexistent name");
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
            let ans = r.resolve(&db, &name, RecordType::Aaaa, 0, 0).unwrap();
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
        let ans = r.resolve(&db, "a.example", RecordType::Aaaa, 0, 0).unwrap();
        assert!(ans.is_empty(), "NODATA stays NODATA without DNS64");
    }

    #[test]
    fn interned_id_and_name_resolve_alike() {
        let db = zone();
        let id = db.id_of("a.example").unwrap();
        let (mut by_name, mut by_id) = (Resolver::dns64(), Resolver::dns64());
        for (week, now) in [(0, 0), (0, 50), (5, 200), (9, 1000)] {
            for qtype in [RecordType::A, RecordType::Aaaa] {
                assert_eq!(
                    by_id.resolve_id(&db, id, qtype, week, now),
                    by_name.resolve(&db, "a.example", qtype, week, now),
                    "{qtype:?} week {week}"
                );
            }
        }
        assert_eq!(by_id.stats(), by_name.stats());
        assert_eq!(by_id.cache_len(), by_name.cache_len());
    }

    #[test]
    fn uninterned_spelling_answers_by_its_decoded_name() {
        // "a.example." is not interned, but its query decodes to the
        // interned "a.example": the authority answers, and the cold path
        // caches the answer under the spelling that was asked.
        let db = zone();
        assert_eq!(db.id_of("a.example."), None);
        let mut r = Resolver::new();
        let cold = r.resolve(&db, "a.example.", RecordType::A, 0, 0).unwrap();
        assert_eq!(cold.len(), 1);
        assert_eq!(r.resolve(&db, "a.example.", RecordType::A, 0, 10), Some(cold));
        assert_eq!(r.stats().cache_hits, 1);
        // the interned spelling keeps its own line
        assert_eq!(r.resolve(&db, "a.example", RecordType::A, 0, 10), Some(cold));
        assert_eq!(r.stats().cache_misses, 2);
        assert_eq!(r.cache_len(), 2);
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
                (0u8..8, 0usize..6, proptest::prelude::any::<bool>(), 0u32..8, 0u64..200),
                1..60,
            ),
        ) {
            let (db, ids) = mixed_zone();
            for fresh in [Resolver::new as fn() -> Resolver, Resolver::dns64] {
                let (mut by_id, mut by_codec) = (fresh(), fresh());
                let mut now = 0;
                for &(op, n, aaaa, week, dt) in &ops {
                    now += dt;
                    if op == 0 {
                        by_id.flush();
                        by_codec.flush();
                        continue;
                    }
                    let qtype = if aaaa { RecordType::Aaaa } else { RecordType::A };
                    let spelled = format!("{}.", db.name_of(ids[n]));
                    proptest::prop_assert_eq!(db.id_of(&spelled), None);
                    proptest::prop_assert_eq!(
                        by_id.resolve_id(&db, ids[n], qtype, week, now),
                        by_codec.resolve(&db, &spelled, qtype, week, now),
                        "n{} {:?} week {} at {}", n, qtype, week, now
                    );
                    proptest::prop_assert_eq!(by_id.stats(), by_codec.stats());
                    proptest::prop_assert_eq!(by_id.cache_len(), by_codec.cache_len());
                }
            }
        }
    }

    #[test]
    fn separate_cache_per_qtype() {
        let db = zone();
        let mut r = Resolver::new();
        r.resolve(&db, "a.example", RecordType::A, 10, 0);
        r.resolve(&db, "a.example", RecordType::Aaaa, 10, 0);
        assert_eq!(r.stats().cache_misses, 2);
        assert_eq!(r.cache_len(), 2);
    }
}
