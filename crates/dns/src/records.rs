//! DNS record model (the A/AAAA subset the study needs).

use serde::{Deserialize, Serialize};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Query/record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordType {
    /// IPv4 address record (type 1).
    A,
    /// IPv6 address record (type 28).
    Aaaa,
}

impl RecordType {
    /// RFC 1035 / 3596 type code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Aaaa => 28,
        }
    }

    /// Parses a type code.
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(RecordType::A),
            28 => Some(RecordType::Aaaa),
            _ => None,
        }
    }
}

/// Address payload of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordData {
    /// A record payload.
    V4(Ipv4Addr),
    /// AAAA record payload.
    V6(Ipv6Addr),
}

impl RecordData {
    /// The record type this payload belongs to.
    pub fn record_type(self) -> RecordType {
        match self {
            RecordData::V4(_) => RecordType::A,
            RecordData::V6(_) => RecordType::Aaaa,
        }
    }
}

/// One resource record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Owner name (e.g. `site42.example`).
    pub name: String,
    /// Address payload.
    pub data: RecordData,
    /// Time to live, seconds.
    pub ttl: u32,
}

impl Record {
    /// Convenience constructor for an A record.
    pub fn a(name: impl Into<String>, addr: Ipv4Addr, ttl: u32) -> Self {
        Record { name: name.into(), data: RecordData::V4(addr), ttl }
    }

    /// Convenience constructor for an AAAA record.
    pub fn aaaa(name: impl Into<String>, addr: Ipv6Addr, ttl: u32) -> Self {
        Record { name: name.into(), data: RecordData::V6(addr), ttl }
    }
}

/// One answer record as a resolver returns it: the address and its TTL.
/// The owner name is the question's, so it is not carried again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerRecord {
    /// Address payload.
    pub data: RecordData,
    /// Time to live, seconds.
    pub ttl: u32,
}

/// The answer section of one resolved question, held inline: empty for
/// NODATA, else the one record the authority holds for that family (a
/// [`ZoneEntry`](crate::ZoneEntry) keeps one address per family). It
/// dereferences to a slice of [`AnswerRecord`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Answer(Option<AnswerRecord>);

impl Answer {
    /// The empty answer: the name exists but has no record of the type.
    pub const NODATA: Answer = Answer(None);

    /// A one-record answer.
    pub fn record(data: RecordData, ttl: u32) -> Self {
        Answer(Some(AnswerRecord { data, ttl }))
    }
}

impl std::ops::Deref for Answer {
    type Target = [AnswerRecord];

    fn deref(&self) -> &[AnswerRecord] {
        self.0.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_match_rfcs() {
        assert_eq!(RecordType::A.code(), 1);
        assert_eq!(RecordType::Aaaa.code(), 28);
        assert_eq!(RecordType::from_code(1), Some(RecordType::A));
        assert_eq!(RecordType::from_code(28), Some(RecordType::Aaaa));
        assert_eq!(RecordType::from_code(15), None, "MX unsupported");
    }

    #[test]
    fn data_knows_its_type() {
        assert_eq!(RecordData::V4(Ipv4Addr::LOCALHOST).record_type(), RecordType::A);
        assert_eq!(RecordData::V6(Ipv6Addr::LOCALHOST).record_type(), RecordType::Aaaa);
    }

    #[test]
    fn constructors() {
        let a = Record::a("x.example", Ipv4Addr::new(192, 0, 2, 1), 300);
        assert_eq!(a.name, "x.example");
        assert_eq!(a.ttl, 300);
        assert_eq!(a.data.record_type(), RecordType::A);
        let q = Record::aaaa("x.example", "2001:db8::1".parse().unwrap(), 60);
        assert_eq!(q.data.record_type(), RecordType::Aaaa);
    }

    #[test]
    fn answers_are_empty_or_one_record() {
        assert!(Answer::NODATA.is_empty());
        assert_eq!(Answer::default(), Answer::NODATA);
        let a = Answer::record(RecordData::V4(Ipv4Addr::new(192, 0, 2, 1)), 300);
        assert_eq!(a.len(), 1);
        assert_eq!(
            a[0],
            AnswerRecord { data: RecordData::V4(Ipv4Addr::new(192, 0, 2, 1)), ttl: 300 }
        );
    }
}
