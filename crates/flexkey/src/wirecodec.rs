//! [`wire`] codec impls for every key type — serialization lives with the
//! types, so any layer that stores or journals keys speaks one format.
//!
//! [`Seg`] decoding validates the segment alphabet, so a corrupt key can
//! never come back into memory; [`FlexKey`] and [`OrdKey`] are sequences
//! behind private fields. Everything else is a [`wire::codec!`] table.

use crate::key::{FlexKey, Key};
use crate::ordkey::{OrdAtom, OrdKey};
use crate::seg::Seg;
use crate::semid::{LngAtom, OrdPrefix, SemBody, SemId};
use wire::{codec, put_bytes, put_slice, Decode, Encode, Reader, WireError};

impl Encode for Seg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Decode for Seg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes()?;
        Seg::new(bytes.to_vec())
            .ok_or_else(|| WireError::Invalid(format!("invalid key segment {bytes:?}")))
    }
}

impl Encode for FlexKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, self.segs());
    }
}

impl Decode for FlexKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(FlexKey::from_segs(Vec::<Seg>::decode(r)?))
    }
}

impl Encode for OrdKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, self.atoms());
    }
}

impl Decode for OrdKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OrdKey::new(Vec::<OrdAtom>::decode(r)?))
    }
}

codec!(enum OrdAtom { 0 => Key(k), 1 => Bytes(b as Bytes) });
codec!(struct Key { id, ord });
codec!(enum LngAtom { 0 => Key(k), 1 => Val(v), 2 => Star, 3 => Null });
codec!(enum OrdPrefix { 0 => FromBody, 1 => NoOrder, 2 => Over(o) });
codec!(enum SemBody { 0 => Base(k), 1 => Constructed(atoms) });
codec!(struct SemId { ord, body });

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = wire::to_vec(&v);
        assert_eq!(wire::from_slice::<T>(&bytes).unwrap(), v, "roundtrip");
    }

    fn k(s: &str) -> FlexKey {
        FlexKey::parse(s).unwrap()
    }

    #[test]
    fn key_types_roundtrip() {
        rt(Seg::parse("zb").unwrap());
        rt(FlexKey::empty());
        rt(k("b.b.f"));
        rt(OrdAtom::Key(k("e.f")));
        rt(OrdAtom::text("1994"));
        rt(OrdAtom::num(-2.5));
        rt(OrdKey::new(vec![OrdAtom::Key(k("b.b")), OrdAtom::text("x")]));
        rt(Key::new(k("b.f")));
        rt(Key::with_ord(k("q.f"), OrdKey::from(k("b.b"))));
    }

    #[test]
    fn semid_roundtrip() {
        rt(SemId::base(k("b.f.b")));
        rt(SemId::constructed(vec![
            LngAtom::Key(k("b.b")),
            LngAtom::Val("1994".into()),
            LngAtom::Star,
            LngAtom::Null,
        ]));
        rt(SemId::constructed(vec![LngAtom::Val("g".into())]).with_no_order());
        rt(SemId::constructed(vec![LngAtom::Val("g".into())]).with_ord(OrdKey::from(k("b.b"))));
    }

    #[test]
    fn invalid_segment_rejected_on_decode() {
        // Encode a segment-shaped byte string that breaks the "no trailing
        // minimum letter" invariant: the codec must refuse to resurrect it.
        let mut bytes = Vec::new();
        put_bytes(&mut bytes, b"ba");
        assert!(matches!(wire::from_slice::<Seg>(&bytes).unwrap_err(), WireError::Invalid(_)));
        let mut upper = Vec::new();
        put_bytes(&mut upper, b"B");
        assert!(matches!(wire::from_slice::<Seg>(&upper).unwrap_err(), WireError::Invalid(_)));
    }

    /// Deterministic generator mirroring the key.rs test RNG.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % bound
        }

        fn key(&mut self) -> FlexKey {
            let len = self.next(6);
            FlexKey::from_segs((0..len).map(|_| Seg::nth(self.next(60))).collect())
        }
    }

    #[test]
    fn random_keys_roundtrip() {
        let mut rng = TestRng(77);
        for _ in 0..2000 {
            rt(rng.key());
        }
    }

    #[test]
    fn encoding_is_compact() {
        // Compactness keeps WAL records small: a short key should cost a
        // couple of bytes per segment, not a fixed-width header each.
        let key = k("b.b.f");
        assert!(wire::to_vec(&key).len() <= 1 + 3 * 2, "{:?}", wire::to_vec(&key));
    }
}
