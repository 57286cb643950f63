//! RFC 1035 message codec (query/response, A and AAAA answers).
//!
//! There is one encoder and one decoder. `MessageWriter` appends a
//! message to a caller-owned buffer, and `WireMessage` decodes into
//! buffers it keeps from one message to the next, so the resolver's hot
//! path reuses the same memory for every lookup. [`DnsMessage`] is the
//! owned form: its [`to_vec`](DnsMessage::to_vec) and
//! [`decode`](DnsMessage::decode) are thin wrappers over the same two.
//!
//! Names are encoded as uncompressed label sequences; the decoder also
//! understands (and rejects cleanly) compression pointers, which this
//! encoder never emits. The encoder refuses exactly the names the decoder
//! would reject — a label over [`MAX_LABEL_LEN`] bytes or more than
//! [`MAX_LABELS`] labels — and checks both in the pass that writes the
//! name.
//!
//! A name in *wire form* (`wire_form_len`) is one the codec carries and
//! decodes back to the same spelling, and `exchange_len` is what a query
//! for it and the response take on the wire. The resolver answers such
//! names without running the codec; both functions sit beside the name
//! encoder, pinned to it by tests, so the shortcut and the codec cannot
//! disagree.

use crate::records::{AnswerRecord, Record, RecordData, RecordType};
use bytes::BufMut;
use ipv6web_packet::PacketError;

/// Longest label the wire carries, in bytes (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;

/// Deepest name the codec carries, in labels.
pub const MAX_LABELS: usize = 32;

/// Message header (12 bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnsHeader {
    /// Transaction id.
    pub id: u16,
    /// True for responses, false for queries.
    pub response: bool,
    /// RCODE (0 = NOERROR, 3 = NXDOMAIN).
    pub rcode: u8,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
}

/// RCODE for NXDOMAIN.
pub const RCODE_NXDOMAIN: u8 = 3;

/// One question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    /// Queried name.
    pub name: String,
    /// Queried type.
    pub qtype: RecordType,
}

/// One answer resource record, wire-level.
#[derive(Debug, Clone, PartialEq)]
pub struct DnsRecordWire {
    /// Owner name.
    pub name: String,
    /// TTL seconds.
    pub ttl: u32,
    /// Address payload.
    pub data: RecordData,
}

/// A parsed or to-be-encoded DNS message.
#[derive(Debug, Clone, PartialEq)]
pub struct DnsMessage {
    /// Header fields.
    pub header: DnsHeader,
    /// Questions (the study always sends exactly one).
    pub questions: Vec<DnsQuestion>,
    /// Answers.
    pub answers: Vec<DnsRecordWire>,
}

impl DnsMessage {
    /// Builds a single-question query.
    pub fn query(id: u16, name: impl Into<String>, qtype: RecordType) -> Self {
        DnsMessage {
            header: DnsHeader { id, response: false, rcode: 0, qdcount: 1, ancount: 0 },
            questions: vec![DnsQuestion { name: name.into(), qtype }],
            answers: Vec::new(),
        }
    }

    /// Builds the response to `query` carrying `records` (empty = NODATA),
    /// or NXDOMAIN when `nxdomain` is set.
    pub fn response(query: &DnsMessage, records: &[Record], nxdomain: bool) -> Self {
        DnsMessage {
            header: DnsHeader {
                id: query.header.id,
                response: true,
                rcode: if nxdomain { RCODE_NXDOMAIN } else { 0 },
                qdcount: query.questions.len() as u16,
                ancount: records.len() as u16,
            },
            questions: query.questions.clone(),
            answers: records
                .iter()
                .map(|r| DnsRecordWire { name: r.name.clone(), ttl: r.ttl, data: r.data })
                .collect(),
        }
    }

    /// Encodes to wire bytes. The section counts come from the sections
    /// themselves, not from `header`.
    ///
    /// # Errors
    /// A name with a label over [`MAX_LABEL_LEN`] bytes or more than
    /// [`MAX_LABELS`] labels, which the codec cannot carry.
    pub fn to_vec(&self) -> Result<Vec<u8>, PacketError> {
        let mut out = Vec::with_capacity(64);
        let mut w =
            MessageWriter::new(&mut out, self.header.id, self.header.response, self.header.rcode);
        for q in &self.questions {
            w.question(&q.name, q.qtype)?;
        }
        for a in &self.answers {
            w.answer(&a.name, a.ttl, a.data)?;
        }
        Ok(out)
    }

    /// Decodes a message.
    pub fn decode(data: &[u8]) -> Result<Self, PacketError> {
        let mut msg = WireMessage::default();
        msg.decode(data)?;
        Ok(msg.to_message())
    }
}

/// Writes one message into a caller-owned buffer: the header first, then
/// questions and answers, each bumping its section count in the header.
#[derive(Debug)]
pub(crate) struct MessageWriter<'a> {
    out: &'a mut Vec<u8>,
}

/// Header offsets of QDCOUNT and ANCOUNT.
const QDCOUNT_AT: usize = 4;
const ANCOUNT_AT: usize = 6;

impl<'a> MessageWriter<'a> {
    /// Clears `out` and writes a header with empty sections. Recursion
    /// desired is always set.
    pub(crate) fn new(out: &'a mut Vec<u8>, id: u16, response: bool, rcode: u8) -> Self {
        out.clear();
        let mut flags: u16 = 0x0100; // RD
        if response {
            flags |= 0x8000;
        }
        flags |= rcode as u16 & 0x000f;
        let [id_hi, id_lo] = id.to_be_bytes();
        let [flags_hi, flags_lo] = flags.to_be_bytes();
        // QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT start at zero
        out.put_slice(&[id_hi, id_lo, flags_hi, flags_lo, 0, 0, 0, 0, 0, 0, 0, 0]);
        MessageWriter { out }
    }

    /// Appends a question.
    ///
    /// # Errors
    /// `name` has a label over [`MAX_LABEL_LEN`] bytes or more than
    /// [`MAX_LABELS`] labels. The buffer then holds a partial message.
    pub(crate) fn question(&mut self, name: &str, qtype: RecordType) -> Result<(), PacketError> {
        put_name(self.out, name)?;
        let [type_hi, type_lo] = qtype.code().to_be_bytes();
        self.out.put_slice(&[type_hi, type_lo, 0, 1]); // class IN
        self.bump(QDCOUNT_AT);
        Ok(())
    }

    /// Appends an answer record.
    ///
    /// # Errors
    /// As for [`MessageWriter::question`].
    pub(crate) fn answer(
        &mut self,
        name: &str,
        ttl: u32,
        data: RecordData,
    ) -> Result<(), PacketError> {
        put_name(self.out, name)?;
        let [type_hi, type_lo] = data.record_type().code().to_be_bytes();
        let [t0, t1, t2, t3] = ttl.to_be_bytes();
        // type, class IN, TTL, RDLENGTH
        self.out.put_slice(&[type_hi, type_lo, 0, 1, t0, t1, t2, t3, 0, rdata_len(data)]);
        match data {
            RecordData::V4(ip) => self.out.put_slice(&ip.octets()),
            RecordData::V6(ip) => self.out.put_slice(&ip.octets()),
        }
        self.bump(ANCOUNT_AT);
        Ok(())
    }

    fn bump(&mut self, at: usize) {
        let count = u16::from_be_bytes([self.out[at], self.out[at + 1]]).wrapping_add(1);
        self.out[at..at + 2].copy_from_slice(&count.to_be_bytes());
    }
}

/// Appends `name` as uncompressed labels. Empty labels (leading, doubled or
/// trailing dots) are skipped, so `"a..b."` goes out as `a.b`.
fn put_name(out: &mut Vec<u8>, name: &str) -> Result<(), PacketError> {
    out.reserve(name.len() + 2);
    let mut depth = 0;
    for label in name.as_bytes().split(|&b| b == b'.').filter(|l| !l.is_empty()) {
        if label.len() > MAX_LABEL_LEN {
            return Err(PacketError::BadLength { what: "dns label length", value: label.len() });
        }
        depth += 1;
        if depth > MAX_LABELS {
            return Err(PacketError::BadField { what: "dns name too deep" });
        }
        out.put_u8(label.len() as u8);
        out.put_slice(label);
    }
    out.put_u8(0);
    Ok(())
}

/// The bytes [`put_name`] writes for `name` when the name is in wire form,
/// else `None`. A wire-form name is non-empty and has no empty label (no
/// leading, trailing or doubled dot), at most [`MAX_LABELS`] labels and
/// none longer than [`MAX_LABEL_LEN`] bytes: it encodes, and decodes back
/// to exactly itself.
pub(crate) fn wire_form_len(name: &str) -> Option<usize> {
    let mut labels = 0;
    for label in name.as_bytes().split(|&b| b == b'.') {
        labels += 1;
        if label.is_empty() || label.len() > MAX_LABEL_LEN || labels > MAX_LABELS {
            return None;
        }
    }
    // a length byte per label stands in for each dot, plus the root label
    Some(name.len() + 2)
}

/// The bytes one exchange takes on the wire: a query whose name encodes
/// into `name_len` bytes, plus the response to it carrying `answer` (empty
/// for NODATA and NXDOMAIN) — what [`MessageWriter`] writes for the two.
pub(crate) fn exchange_len(name_len: usize, answer: &[AnswerRecord]) -> usize {
    // header, name, type and class; the response repeats the question
    let question = 12 + name_len + 4;
    // name, type, class, TTL, RDLENGTH and RDATA
    let records: usize =
        answer.iter().map(|r| name_len + 10 + usize::from(rdata_len(r.data))).sum();
    2 * question + records
}

/// RDLENGTH of an address payload.
fn rdata_len(data: RecordData) -> u8 {
    match data {
        RecordData::V4(_) => 4,
        RecordData::V6(_) => 16,
    }
}

/// `start..end` of one decoded name inside [`WireMessage`]'s name buffer.
type Span = (usize, usize);

/// A decoded message held in buffers that survive from one decode to the
/// next: once they have grown to fit the messages a caller sees, decoding
/// allocates nothing. Names are borrowed back out of the message.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireMessage {
    header: DnsHeader,
    /// Every decoded name, back to back.
    names: String,
    /// The raw bytes of the name being decoded, before its UTF-8 check.
    raw_name: Vec<u8>,
    questions: Vec<(Span, RecordType)>,
    answers: Vec<(Span, u32, RecordData)>,
}

impl WireMessage {
    /// Decodes `data`, replacing whatever this message held. After an
    /// error the message holds no meaningful content.
    pub(crate) fn decode(&mut self, data: &[u8]) -> Result<(), PacketError> {
        self.names.clear();
        self.questions.clear();
        self.answers.clear();
        let Some((head, mut buf)) = data.split_first_chunk::<12>() else {
            return Err(PacketError::Truncated { what: "dns header", needed: 12, got: data.len() });
        };
        let be16 = |at: usize| u16::from_be_bytes([head[at], head[at + 1]]);
        let flags = be16(2);
        self.header = DnsHeader {
            id: be16(0),
            response: flags & 0x8000 != 0,
            rcode: (flags & 0x000f) as u8,
            qdcount: be16(QDCOUNT_AT),
            ancount: be16(ANCOUNT_AT),
        };
        for _ in 0..self.header.qdcount {
            let name = self.read_name(&mut buf)?;
            let Some((fixed, rest)) = buf.split_first_chunk::<4>() else {
                return Err(PacketError::Truncated {
                    what: "dns question",
                    needed: 4,
                    got: buf.len(),
                });
            };
            buf = rest;
            let code = u16::from_be_bytes([fixed[0], fixed[1]]);
            let qtype =
                RecordType::from_code(code).ok_or(PacketError::BadField { what: "dns qtype" })?;
            self.questions.push((name, qtype));
        }
        for _ in 0..self.header.ancount {
            let name = self.read_name(&mut buf)?;
            let Some((fixed, rest)) = buf.split_first_chunk::<10>() else {
                return Err(PacketError::Truncated {
                    what: "dns answer",
                    needed: 10,
                    got: buf.len(),
                });
            };
            buf = rest;
            let code = u16::from_be_bytes([fixed[0], fixed[1]]);
            let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
            let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
            if buf.len() < rdlen {
                return Err(PacketError::Truncated {
                    what: "dns rdata",
                    needed: rdlen,
                    got: buf.len(),
                });
            }
            let rtype = RecordType::from_code(code)
                .ok_or(PacketError::BadField { what: "dns answer type" })?;
            let (rdata, rest) = buf.split_at(rdlen);
            buf = rest;
            let data = match rtype {
                RecordType::A => <[u8; 4]>::try_from(rdata).map(|o| RecordData::V4(o.into())),
                RecordType::Aaaa => <[u8; 16]>::try_from(rdata).map(|o| RecordData::V6(o.into())),
            }
            .map_err(|_| PacketError::BadLength { what: "dns rdata length", value: rdlen })?;
            self.answers.push((name, ttl, data));
        }
        Ok(())
    }

    /// Reads one uncompressed name off the front of `buf` into the name
    /// buffer, labels joined by dots.
    ///
    /// Labels must be UTF-8. They are checked once per name, on the dotted
    /// join: the separators are ASCII, so the join is valid exactly when
    /// every label is. When a later label fails structurally, the labels
    /// read before it are checked first, so an invalid label is reported
    /// ahead of any failure that follows it on the wire.
    fn read_name(&mut self, buf: &mut &[u8]) -> Result<Span, PacketError> {
        const BAD_UTF8: PacketError = PacketError::BadField { what: "dns label utf8" };
        self.raw_name.clear();
        let mut depth = 0;
        let failure = loop {
            let Some((&len, rest)) = buf.split_first() else {
                break PacketError::Truncated { what: "dns name", needed: 1, got: 0 };
            };
            *buf = rest;
            if len == 0 {
                let name = std::str::from_utf8(&self.raw_name).map_err(|_| BAD_UTF8)?;
                let start = self.names.len();
                self.names.push_str(name);
                return Ok((start, self.names.len()));
            }
            if len & 0xc0 != 0 {
                break PacketError::BadField { what: "dns compression pointer (unsupported)" };
            }
            let len = len as usize;
            if buf.len() < len {
                break PacketError::Truncated { what: "dns label", needed: len, got: buf.len() };
            }
            let (label, rest) = buf.split_at(len);
            *buf = rest;
            if depth > 0 {
                self.raw_name.push(b'.');
            }
            self.raw_name.extend_from_slice(label);
            depth += 1;
            if depth > MAX_LABELS {
                break PacketError::BadField { what: "dns name too deep" };
            }
        };
        match std::str::from_utf8(&self.raw_name) {
            Ok(_) => Err(failure),
            Err(_) => Err(BAD_UTF8),
        }
    }

    fn name(&self, (start, end): Span) -> &str {
        &self.names[start..end]
    }

    /// Header fields as they were on the wire.
    pub(crate) fn header(&self) -> DnsHeader {
        self.header
    }

    /// `(name, qtype)` of each question, in wire order.
    pub(crate) fn questions(&self) -> impl ExactSizeIterator<Item = (&str, RecordType)> + '_ {
        self.questions.iter().map(|&(span, qtype)| (self.name(span), qtype))
    }

    /// `(owner name, ttl, data)` of each answer, in wire order.
    pub(crate) fn answers(&self) -> impl ExactSizeIterator<Item = (&str, u32, RecordData)> + '_ {
        self.answers.iter().map(|&(span, ttl, data)| (self.name(span), ttl, data))
    }

    /// The owned [`DnsMessage`] form.
    pub(crate) fn to_message(&self) -> DnsMessage {
        DnsMessage {
            header: self.header,
            questions: self
                .questions()
                .map(|(name, qtype)| DnsQuestion { name: name.to_string(), qtype })
                .collect(),
            answers: self
                .answers()
                .map(|(name, ttl, data)| DnsRecordWire { name: name.to_string(), ttl, data })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Answer;
    use proptest::prelude::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::query(0x1234, "www.site7.example", RecordType::Aaaa);
        let d = DnsMessage::decode(&q.to_vec().unwrap()).unwrap();
        assert_eq!(q, d);
        assert!(!d.header.response);
        assert_eq!(d.questions[0].name, "www.site7.example");
        assert_eq!(d.questions[0].qtype, RecordType::Aaaa);
    }

    #[test]
    fn response_roundtrip_with_answers() {
        let q = DnsMessage::query(7, "s.example", RecordType::A);
        let recs = vec![Record::a("s.example", Ipv4Addr::new(192, 0, 2, 9), 120)];
        let r = DnsMessage::response(&q, &recs, false);
        let d = DnsMessage::decode(&r.to_vec().unwrap()).unwrap();
        assert!(d.header.response);
        assert_eq!(d.header.id, 7);
        assert_eq!(d.header.rcode, 0);
        assert_eq!(d.answers.len(), 1);
        assert_eq!(d.answers[0].data, RecordData::V4(Ipv4Addr::new(192, 0, 2, 9)));
        assert_eq!(d.answers[0].ttl, 120);
    }

    #[test]
    fn aaaa_answer_roundtrip() {
        let q = DnsMessage::query(8, "s.example", RecordType::Aaaa);
        let recs = vec![Record::aaaa("s.example", "2001:db8::42".parse().unwrap(), 60)];
        let d =
            DnsMessage::decode(&DnsMessage::response(&q, &recs, false).to_vec().unwrap()).unwrap();
        assert_eq!(d.answers[0].data, RecordData::V6("2001:db8::42".parse().unwrap()));
    }

    #[test]
    fn nxdomain_response() {
        let q = DnsMessage::query(9, "gone.example", RecordType::A);
        let r = DnsMessage::response(&q, &[], true);
        let d = DnsMessage::decode(&r.to_vec().unwrap()).unwrap();
        assert_eq!(d.header.rcode, RCODE_NXDOMAIN);
        assert!(d.answers.is_empty());
    }

    #[test]
    fn nodata_response_has_rcode_zero() {
        let q = DnsMessage::query(9, "v4only.example", RecordType::Aaaa);
        let d =
            DnsMessage::decode(&DnsMessage::response(&q, &[], false).to_vec().unwrap()).unwrap();
        assert_eq!(d.header.rcode, 0);
        assert!(d.answers.is_empty());
    }

    #[test]
    fn truncated_rejected() {
        let q = DnsMessage::query(1, "x.example", RecordType::A).to_vec().unwrap();
        for cut in [0, 5, 11, q.len() - 1] {
            assert!(DnsMessage::decode(&q[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn compression_pointer_rejected() {
        let mut v = DnsMessage::query(1, "x.example", RecordType::A).to_vec().unwrap();
        v[12] = 0xc0; // pointer marker where the first label length was
        assert_eq!(
            DnsMessage::decode(&v).unwrap_err(),
            PacketError::BadField { what: "dns compression pointer (unsupported)" }
        );
    }

    #[test]
    fn unknown_qtype_rejected() {
        let mut v = DnsMessage::query(1, "x.example", RecordType::A).to_vec().unwrap();
        let n = v.len();
        v[n - 4] = 0;
        v[n - 3] = 15; // MX
        assert_eq!(
            DnsMessage::decode(&v).unwrap_err(),
            PacketError::BadField { what: "dns qtype" }
        );
    }

    #[test]
    fn empty_name_roundtrips_as_root() {
        let q = DnsMessage::query(2, "", RecordType::A);
        let d = DnsMessage::decode(&q.to_vec().unwrap()).unwrap();
        assert_eq!(d.questions[0].name, "");
    }

    #[test]
    fn invalid_label_is_reported_before_later_failures() {
        let header = [0u8, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        let with_name = |labels: &[&[u8]], tail: &[u8]| {
            let mut v = header.to_vec();
            for l in labels {
                v.push(l.len() as u8);
                v.extend_from_slice(l);
            }
            v.extend_from_slice(tail);
            v
        };
        let utf8 = Err(PacketError::BadField { what: "dns label utf8" });
        let bad: &[u8] = &[0xc3];
        // an invalid label, then a truncated one
        assert_eq!(DnsMessage::decode(&with_name(&[bad], &[5, b'a'])), utf8);
        // an invalid label, then a compression pointer
        assert_eq!(DnsMessage::decode(&with_name(&[b"ok", bad], &[0xc0, 12])), utf8);
        // an invalid label among 33
        let mut deep: Vec<&[u8]> = vec![b"a"; MAX_LABELS + 1];
        deep[MAX_LABELS] = bad;
        assert_eq!(DnsMessage::decode(&with_name(&deep, &[0])), utf8);
        deep[MAX_LABELS] = b"a";
        assert_eq!(
            DnsMessage::decode(&with_name(&deep, &[0])),
            Err(PacketError::BadField { what: "dns name too deep" })
        );
        // valid labels, then a truncated one: the structural failure
        assert_eq!(
            DnsMessage::decode(&with_name(&[b"ok"], &[5, b'a'])),
            Err(PacketError::Truncated { what: "dns label", needed: 5, got: 1 })
        );
        // a split multi-byte character is invalid even though its bytes
        // would join into one
        assert_eq!(DnsMessage::decode(&with_name(&[&[0xc3], &[0xa9]], &[0, 0, 1, 0, 1])), utf8);
        assert!(DnsMessage::decode(&with_name(&[&[0xc3, 0xa9]], &[0, 0, 1, 0, 1])).is_ok());
    }

    #[test]
    fn writer_refuses_what_the_decoder_rejects() {
        let mut out = Vec::new();
        let long = format!("{}.example", "x".repeat(MAX_LABEL_LEN + 1));
        let mut w = MessageWriter::new(&mut out, 1, false, 0);
        assert_eq!(
            w.question(&long, RecordType::A),
            Err(PacketError::BadLength { what: "dns label length", value: 64 })
        );
        let deep = vec!["a"; MAX_LABELS + 1].join(".");
        let mut w = MessageWriter::new(&mut out, 1, false, 0);
        assert_eq!(
            w.question(&deep, RecordType::A),
            Err(PacketError::BadField { what: "dns name too deep" })
        );
        // the limits themselves encode and decode
        let max = format!("{}.{}", "x".repeat(MAX_LABEL_LEN), vec!["a"; MAX_LABELS - 1].join("."));
        let d =
            DnsMessage::decode(&DnsMessage::query(1, max.clone(), RecordType::A).to_vec().unwrap())
                .unwrap();
        assert_eq!(d.questions[0].name, max);
        // empty labels are skipped, not counted
        let dotted = format!("{}.", vec!["a"; MAX_LABELS].join(".."));
        assert!(DnsMessage::query(1, dotted, RecordType::A).to_vec().is_ok());
    }

    #[test]
    fn writer_counts_sections_and_reuses_its_buffer() {
        let mut out = vec![0xee; 100];
        let mut w = MessageWriter::new(&mut out, 0xbeef, true, RCODE_NXDOMAIN);
        w.question("q.example", RecordType::Aaaa).unwrap();
        w.answer("q.example", 30, RecordData::V6("2001:db8::7".parse().unwrap())).unwrap();
        let mut msg = WireMessage::default();
        msg.decode(&out).unwrap();
        assert_eq!(
            msg.header(),
            DnsHeader { id: 0xbeef, response: true, rcode: RCODE_NXDOMAIN, qdcount: 1, ancount: 1 }
        );
        assert_eq!(msg.questions().collect::<Vec<_>>(), [("q.example", RecordType::Aaaa)]);
        assert_eq!(
            msg.answers().collect::<Vec<_>>(),
            [("q.example", 30, RecordData::V6("2001:db8::7".parse().unwrap()))]
        );
    }

    #[test]
    fn wire_form_edge_cases() {
        let long = "x".repeat(MAX_LABEL_LEN + 1);
        let deep = vec!["a"; MAX_LABELS + 1].join(".");
        for name in ["", ".", ".a", "a.", "a..b", "a.example.", &long, &deep] {
            assert_eq!(wire_form_len(name), None, "{name:?}");
        }
        let max = "x".repeat(MAX_LABEL_LEN);
        let legal = vec!["a"; MAX_LABELS].join(".");
        for name in ["a", "a.example", "-.0", &max, &legal] {
            assert_eq!(wire_form_len(name), Some(name.len() + 2), "{name:?}");
        }
    }

    /// One label of a name that may or may not be in wire form: mostly a
    /// short one, sometimes empty, 63 bytes or 64 bytes.
    fn any_label() -> impl Strategy<Value = String> {
        (0u8..8, "[a-z0-9-]{1,12}").prop_map(|(pick, short)| match pick {
            0 => String::new(),
            1 => "x".repeat(MAX_LABEL_LEN),
            2 => "x".repeat(MAX_LABEL_LEN + 1),
            _ => short,
        })
    }

    /// The labels of a wire-form name, from one label to the deepest.
    fn wire_form_labels() -> impl Strategy<Value = Vec<String>> {
        prop_oneof![
            proptest::collection::vec("[a-z0-9-]{1,63}", 1..4),
            proptest::collection::vec("[a-z]{1,3}", MAX_LABELS - 1..MAX_LABELS + 1),
        ]
    }

    /// Byte strings that sometimes decode: valid messages, mutated ones,
    /// truncated ones, padded ones, and plain noise.
    fn wire_bytes() -> impl Strategy<Value = Vec<u8>> {
        let message = (
            proptest::collection::vec("[a-z0-9-]{1,12}", 0..4),
            any::<bool>(),
            0usize..3,
            any::<u32>(),
            any::<u16>(),
            any::<u8>(),
            0u8..4,
        )
            .prop_map(|(labels, aaaa, n, ttl, at, xor, mode)| {
                let name = labels.join(".");
                let qtype = if aaaa { RecordType::Aaaa } else { RecordType::A };
                let q = DnsMessage::query(at, name.clone(), qtype);
                let recs: Vec<Record> = (0..n)
                    .map(|i| {
                        let x = ttl.rotate_left(i as u32);
                        if aaaa {
                            Record::aaaa(name.clone(), Ipv6Addr::from(u128::from(x) << 64), ttl)
                        } else {
                            Record::a(name.clone(), Ipv4Addr::from(x), ttl)
                        }
                    })
                    .collect();
                let mut v =
                    DnsMessage::response(&q, &recs, n == 0 && xor & 1 == 1).to_vec().unwrap();
                match mode {
                    0 => {}
                    1 => {
                        let i = at as usize % v.len();
                        v[i] ^= xor;
                    }
                    2 => v.truncate(at as usize % (v.len() + 1)),
                    _ => v.push(xor),
                }
                v
            });
        prop_oneof![message, proptest::collection::vec(any::<u8>(), 0..48)]
    }

    proptest! {
        /// One decoder reused across a run of messages agrees with a fresh
        /// owned decode on every one of them: same verdict, same error,
        /// same contents — nothing leaks from one message into the next.
        #[test]
        fn reused_decoder_matches_owned_decode(
            inputs in proptest::collection::vec(wire_bytes(), 1..8),
        ) {
            let mut reused = WireMessage::default();
            for bytes in &inputs {
                let owned = DnsMessage::decode(bytes);
                let got = reused.decode(bytes).map(|()| reused.to_message());
                prop_assert_eq!(got, owned);
            }
        }

        /// The wire-form test is false exactly for names with an empty
        /// label (`""` and stray dots), a label over 63 bytes or more than
        /// 32 labels; a wire-form name encodes into the length it reports
        /// and decodes back to itself.
        #[test]
        fn wire_form_matches_the_codec(
            labels in prop_oneof![
                proptest::collection::vec(any_label(), 1..5),
                proptest::collection::vec("[a-z]{1,3}", MAX_LABELS..MAX_LABELS + 2),
            ],
        ) {
            let name = labels.join(".");
            let expected = labels.len() <= MAX_LABELS
                && labels.iter().all(|l| !l.is_empty() && l.len() <= MAX_LABEL_LEN);
            prop_assert_eq!(wire_form_len(&name).is_some(), expected, "{:?}", name);
            if let Some(len) = wire_form_len(&name) {
                let mut out = Vec::new();
                MessageWriter::new(&mut out, 1, false, 0).question(&name, RecordType::A).unwrap();
                prop_assert_eq!(out.len(), 12 + len + 4);
                let decoded = DnsMessage::decode(&out).unwrap();
                prop_assert_eq!(&decoded.questions[0].name, &name);
            }
        }

        /// `exchange_len` is the bytes the writer puts out for a query and
        /// its NODATA, one-record or NXDOMAIN response, for either qtype.
        #[test]
        fn exchange_len_matches_the_writer(
            labels in wire_form_labels(),
            aaaa in any::<bool>(),
            shape in 0u8..3,
            ttl in any::<u32>(),
            bits in any::<u128>(),
        ) {
            let name = labels.join(".");
            let name_len = wire_form_len(&name).unwrap();
            let qtype = if aaaa { RecordType::Aaaa } else { RecordType::A };
            let data = if aaaa {
                RecordData::V6(Ipv6Addr::from(bits))
            } else {
                RecordData::V4(Ipv4Addr::from(bits as u32))
            };
            let (answer, rcode) = match shape {
                0 => (Answer::NODATA, 0),
                1 => (Answer::record(data, ttl), 0),
                _ => (Answer::NODATA, RCODE_NXDOMAIN),
            };
            let mut query = Vec::new();
            MessageWriter::new(&mut query, 7, false, 0).question(&name, qtype).unwrap();
            let mut response = Vec::new();
            let mut w = MessageWriter::new(&mut response, 7, true, rcode);
            w.question(&name, qtype).unwrap();
            for r in answer.iter() {
                w.answer(&name, r.ttl, r.data).unwrap();
            }
            prop_assert_eq!(exchange_len(name_len, &answer), query.len() + response.len());
        }

        #[test]
        fn roundtrip_arbitrary_names(
            labels in proptest::collection::vec("[a-z0-9-]{1,20}", 1..5),
            id in any::<u16>(),
        ) {
            let name = labels.join(".");
            let q = DnsMessage::query(id, name.clone(), RecordType::Aaaa);
            let d = DnsMessage::decode(&q.to_vec().unwrap()).unwrap();
            prop_assert_eq!(d.questions[0].name.clone(), name);
            prop_assert_eq!(d.header.id, id);
        }

        #[test]
        fn roundtrip_many_answers(
            n in 0usize..10,
            ttl in any::<u32>(),
        ) {
            let q = DnsMessage::query(3, "multi.example", RecordType::A);
            let recs: Vec<Record> = (0..n)
                .map(|i| Record::a("multi.example", Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8), ttl))
                .collect();
            let d = DnsMessage::decode(&DnsMessage::response(&q, &recs, false).to_vec().unwrap()).unwrap();
            prop_assert_eq!(d.answers.len(), n);
            for (a, r) in d.answers.iter().zip(&recs) {
                prop_assert_eq!(a.data, r.data);
                prop_assert_eq!(a.ttl, ttl);
            }
        }
    }
}
