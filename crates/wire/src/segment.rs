//! Chained log segments: the seal/manifest record.
//!
//! A generation-numbered log that rotates **without** stopping the world
//! needs a durable marker saying "this segment is complete; its successor
//! continues the history". [`SealRecord`] is that marker: the final record
//! of a sealed segment, carrying a small manifest (record and byte counts
//! of the payload prefix it closes) plus the generation the chain continues
//! in. [`SegmentRecord`] is the tagged union a chained log stores frame by
//! frame:
//!
//! * tag `0` — an opaque payload record (the log's own unit, e.g. an
//!   update batch);
//! * tag `1` — the segment seal, which must be the last record (a reader
//!   treats anything after it as torn).
//!
//! Recovery walks the chain: load the newest snapshot of generation *G*,
//! replay segment *G*; if it ends in a seal, continue with the segment the
//! seal names, and so on — the last unsealed segment is the active tail.
//! A segment **without** a seal is either the active tail or an
//! interrupted rotation; either way its torn suffix (possibly a torn seal)
//! is discarded by the ordinary frame rules. The manifest counts let a
//! reader assert the sealed prefix is complete rather than assume it.

use crate::{Decode, Encode, Reader, WireError};

/// The seal/manifest closing one log segment (see the [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealRecord {
    /// Generation of the segment this record seals.
    pub sealed_gen: u64,
    /// Generation the chain continues in (the next active segment).
    pub next_gen: u64,
    /// Payload records in the sealed segment (the seal itself excluded).
    pub records: u64,
    /// Bytes of the sealed segment up to (not including) the seal frame.
    pub bytes: u64,
}

crate::codec!(struct SealRecord { sealed_gen, next_gen, records, bytes });

/// One record of a chained log segment: an opaque payload (tag `0`) or the
/// segment seal (tag `1`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegmentRecord<T> {
    /// The log's own unit.
    Payload(T),
    /// The segment is complete; the chain continues in
    /// [`SealRecord::next_gen`].
    Seal(SealRecord),
}

impl<T: Encode> Encode for SegmentRecord<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SegmentRecord::Payload(p) => {
                out.push(0);
                p.encode(out);
            }
            SegmentRecord::Seal(s) => {
                out.push(1);
                s.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for SegmentRecord<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(SegmentRecord::Payload(T::decode(r)?)),
            1 => Ok(SegmentRecord::Seal(SealRecord::decode(r)?)),
            tag => Err(WireError::Tag { type_name: "SegmentRecord", tag }),
        }
    }
}

/// Encode one payload record (tag `0` + the payload's own encoding) into
/// a fresh buffer, without constructing an owned [`SegmentRecord`] — the
/// append-path helper for logs whose payloads arrive by reference.
pub fn payload_bytes<T: Encode + ?Sized>(payload: &T) -> Vec<u8> {
    let mut out = vec![0u8];
    payload.encode(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_slice, to_vec};

    #[test]
    fn seal_and_payload_roundtrip() {
        let seal = SealRecord { sealed_gen: 7, next_gen: 8, records: 1024, bytes: 1 << 20 };
        assert_eq!(from_slice::<SealRecord>(&to_vec(&seal)).unwrap(), seal);
        let rec: SegmentRecord<String> = SegmentRecord::Payload("batch bytes".into());
        assert_eq!(from_slice::<SegmentRecord<String>>(&to_vec(&rec)).unwrap(), rec);
        assert_eq!(payload_bytes(&"batch bytes".to_string()), to_vec(&rec), "by-ref helper agrees");
        let rec: SegmentRecord<String> = SegmentRecord::Seal(seal);
        assert_eq!(from_slice::<SegmentRecord<String>>(&to_vec(&rec)).unwrap(), rec);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = to_vec(&SegmentRecord::<String>::Seal(SealRecord {
            sealed_gen: 0,
            next_gen: 1,
            records: 0,
            bytes: 0,
        }));
        bytes[0] = 9;
        let err = from_slice::<SegmentRecord<String>>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::Tag { type_name: "SegmentRecord", tag: 9 }));
    }

    #[test]
    fn truncated_seal_is_rejected() {
        let bytes = to_vec(&SealRecord { sealed_gen: 300, next_gen: 301, records: 5, bytes: 99 });
        for cut in 0..bytes.len() {
            assert!(from_slice::<SealRecord>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
