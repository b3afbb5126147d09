//! # wire — the storage-layer binary codec
//!
//! One small `Encode`/`Decode` pair over length-prefixed binary values,
//! shared by every storage layer of the stack: `flexkey` keys and semantic
//! ids, `xmlstore` nodes/documents/stores, `xat` view extents, and
//! `xquery` typed update batches (the WAL record payload). No external
//! dependencies — the registry is offline, and the format is simple enough
//! that a hand-rolled codec is both smaller and easier to audit than a
//! serde stack.
//!
//! ## Value encoding
//!
//! * unsigned integers — LEB128 varints ([`put_u64`] / [`Reader::u64`]);
//! * signed integers — zigzag, then varint ([`put_i64`] / [`Reader::i64`]);
//! * byte strings / UTF-8 strings — varint length + raw bytes;
//! * sequences — varint length + elements;
//! * options — `0`/`1` presence byte + value;
//! * enums — one tag byte + variant payload;
//! * `Box`/`Arc` — transparent: the pointee's encoding.
//!
//! Values are *not* self-describing: reader and writer must agree on the
//! type, which is what the framed record layer's version byte is for.
//!
//! ## One table per format: [`codec!`]
//!
//! A type's wire format is written down once, as a [`codec!`] table, and
//! the macro derives both the [`Encode`] and the [`Decode`] impl from it,
//! so the two halves cannot drift apart. The table *is* the format: a
//! struct is its fields in wire order, an enum is one tag byte per
//! variant followed by that variant's fields. Reordering a table, or
//! renumbering a tag, changes the bytes on disk and on the wire.
//!
//! Only decoders that validate their input or rebuild private state
//! (key segments, stores, update ops) are written by hand.
//!
//! ## Framed records
//!
//! Durable artifacts (WAL records, snapshot files) wrap an encoded value
//! in a [`frame`]: a format-version byte, a little-endian `u32` payload
//! length, the payload, and a CRC-32 of the payload. A frame is either
//! read back intact or classified as **torn** — the property write-ahead
//! logging relies on to discard an interrupted final record at recovery.
//!
//! ## Chained segments
//!
//! Logs that rotate without stopping the world store [`segment`] records:
//! a tagged union of opaque payloads and the [`segment::SealRecord`]
//! manifest that closes a generation and names its successor, so recovery
//! can replay a snapshot plus a *chain* of sealed logs and the active tail.

pub mod frame;
pub mod segment;

pub use segment::{SealRecord, SegmentRecord};

use std::fmt;

/// Decoding failures. Encoding is infallible (it writes to a growable
/// buffer); every invalid input surfaces at decode time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a value.
    Eof {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum tag byte no variant of the named type uses.
    Tag {
        /// The type being decoded.
        type_name: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A decoded value violated the type's own invariants (bad UTF-8, an
    /// invalid key segment, a varint that overflows the target width…).
    Invalid(String),
    /// [`from_slice`] decoded a complete value but bytes were left over.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof { wanted, remaining } => {
                write!(f, "unexpected end of input (wanted {wanted} bytes, {remaining} left)")
            }
            WireError::Tag { type_name, tag } => {
                write!(f, "invalid tag byte {tag:#04x} for {type_name}")
            }
            WireError::Invalid(msg) => write!(f, "invalid value: {msg}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after a complete value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Types that serialize themselves onto a byte buffer.
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Types that deserialize themselves from a [`Reader`].
pub trait Decode: Sized {
    /// Decode one value, consuming exactly its bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode a value into a fresh buffer.
pub fn to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode a value that must span the whole slice.
pub fn from_slice<T: Decode>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Append an LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed varint.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed sequence of encodable values.
pub fn put_slice<T: Encode>(out: &mut Vec<u8>, items: &[T]) {
    put_u64(out, items.len() as u64);
    for it in items {
        it.encode(out);
    }
}

/// A cursor over an encoded byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn eof(&self, wanted: usize) -> WireError {
        WireError::Eof { wanted, remaining: self.remaining() }
    }

    /// Read one raw byte.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.eof(1))?;
        self.pos += 1;
        Ok(b)
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(self.eof(n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read an LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                // The final byte must fit the remaining width (shift 63
                // leaves 1 bit).
                if shift == 63 && byte > 1 {
                    return Err(WireError::Invalid("varint overflows u64".into()));
                }
                return Ok(v);
            }
        }
        Err(WireError::Invalid("varint longer than 10 bytes".into()))
    }

    /// Read a zigzag-encoded signed varint.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a varint as a `usize` (in-memory length).
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid(format!("length {v} overflows usize")))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len_prefix()?;
        self.take(n)
    }

    /// Error unless the whole buffer was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.len_prefix()
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.u64()?;
        u32::try_from(v).map_err(|_| WireError::Invalid(format!("value {v} overflows u32")))
    }
}

impl Encode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_i64(out, *self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.i64()
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::Tag { type_name: "bool", tag }),
        }
    }
}

/// Encode-only: decoding produces the owned `String`.
impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|e| WireError::Invalid(format!("invalid UTF-8 string: {e}")))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, self);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix()?;
        // Defensive pre-allocation bound: never trust a length prefix for
        // more memory than the bytes that could plausibly back it. The cap
        // is in bytes of remaining input, not in elements: a forged count
        // over a 1 MiB frame must not reserve 1 Mi elements of `T`.
        let mut out = Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::Tag { type_name: "Option", tag }),
        }
    }
}

/// `Arc` is transparent on the wire: the pointee's encoding, nothing
/// else. Lets copy-on-write state (shared extents, frozen stores) flow
/// into snapshots without a deep copy at capture time.
impl<T: Encode + ?Sized> Encode for std::sync::Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for std::sync::Arc<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(std::sync::Arc::new(T::decode(r)?))
    }
}

/// `Box` is transparent on the wire, like `Arc`: recursive types box
/// their children without changing the format.
impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Derive [`Encode`] and [`Decode`] for a type from one table that lists
/// its wire format (see the [crate docs](crate#one-table-per-format-codec)).
///
/// * `codec!(struct T { a, b, c })` — the named fields, in wire order,
///   each in its own type's encoding.
/// * `codec!(enum T { 0 => Unit, 1 => Tuple(x, y), 2 => Named { a, b } })`
///   — one tag byte, then the variant's fields in order. Tuple fields take
///   binding names. An unknown tag decodes to [`WireError::Tag`] naming
///   `T`.
/// * `field as Bytes` — a `Vec<u8>` field written as one length-prefixed
///   byte string ([`put_bytes`] / [`Reader::bytes`]): one bulk copy
///   instead of a per-byte loop.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Step { axis: u64, name: String, payload: Vec<u8> }
/// wire::codec!(struct Step { axis, name, payload as Bytes });
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Line(u64), Box { w: u64, h: u64 } }
/// wire::codec!(enum Shape { 0 => Dot, 1 => Line(len), 2 => Box { w, h } });
///
/// let s = Step { axis: 1, name: "b".into(), payload: vec![7, 8] };
/// assert_eq!(wire::to_vec(&s), [1, 1, b'b', 2, 7, 8]);
/// assert_eq!(wire::from_slice::<Step>(&wire::to_vec(&s)).unwrap(), s);
/// assert_eq!(wire::to_vec(&Shape::Box { w: 2, h: 3 }), [2, 2, 3]);
/// assert!(matches!(
///     wire::from_slice::<Shape>(&[9]),
///     Err(wire::WireError::Tag { type_name: "Shape", tag: 9 })
/// ));
/// ```
#[macro_export]
macro_rules! codec {
    (struct $ty:ident { $($field:ident $(as $adapter:ident)?),* $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::codec!(@enc [$($adapter)?] out, &self.$field); )*
            }
        }

        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok($ty { $( $field: $crate::codec!(@dec [$($adapter)?] r), )* })
            }
        }
    };
    (enum $ty:ident {
        $($tag:literal => $variant:ident
            $(( $($pos:ident $(as $pos_adapter:ident)?),* ))?
            $({ $($named:ident $(as $named_adapter:ident)?),* })?
        ),* $(,)?
    }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(( $($pos),* ))? $({ $($named),* })? => {
                        out.push($tag);
                        $($( $crate::codec!(@enc [$($pos_adapter)?] out, $pos); )*)?
                        $($( $crate::codec!(@enc [$($named_adapter)?] out, $named); )*)?
                    })*
                }
            }
        }

        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok(match r.byte()? {
                    $($tag => $ty::$variant
                        $(( $($crate::codec!(@dec [$($pos_adapter)?] r)),* ))?
                        $({ $($named: $crate::codec!(@dec [$($named_adapter)?] r)),* })?,
                    )*
                    tag => {
                        return Err($crate::WireError::Tag { type_name: stringify!($ty), tag })
                    }
                })
            }
        }
    };
    (@enc [] $out:ident, $value:expr) => {
        $crate::Encode::encode($value, $out)
    };
    (@enc [Bytes] $out:ident, $value:expr) => {
        $crate::put_bytes($out, $value)
    };
    (@dec [] $r:ident) => {
        $crate::Decode::decode($r)?
    };
    (@dec [Bytes] $r:ident) => {
        $r.bytes()?.to_vec()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_vec(&v);
        assert_eq!(from_slice::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 64, i64::MAX, i64::MIN] {
            roundtrip(v);
        }
        // Small magnitudes stay small on the wire.
        assert_eq!(to_vec(&-1i64).len(), 1);
        assert_eq!(to_vec(&1i64).len(), 1);
    }

    #[test]
    fn string_and_vec_roundtrip() {
        roundtrip(String::from("hello, wire"));
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![(String::from("k"), 7u64), (String::from("q"), 9)]);
        roundtrip(Some(String::from("x")));
        roundtrip(Option::<String>::None);
        roundtrip(vec![true, false, true]);
    }

    #[test]
    fn u32_and_box_roundtrip() {
        roundtrip(u32::MAX);
        roundtrip(Box::new(String::from("boxed")));
        // Both are transparent: a u32 is a varint, a box its pointee.
        assert_eq!(to_vec(&7u32), to_vec(&7u64));
        assert_eq!(to_vec(&Box::new(9u64)), to_vec(&9u64));
        let wide = to_vec(&(u64::from(u32::MAX) + 1));
        assert_eq!(
            from_slice::<u32>(&wide).unwrap_err(),
            WireError::Invalid("value 4294967296 overflows u32".into())
        );
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = to_vec(&String::from("hello"));
        for cut in 0..bytes.len() {
            let err = from_slice::<String>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Eof { .. }), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_vec(&7u64);
        bytes.push(0);
        assert_eq!(from_slice::<u64>(&bytes).unwrap_err(), WireError::Trailing(1));
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(from_slice::<bool>(&[9]).unwrap_err(), WireError::Tag { tag: 9, .. }));
        assert!(matches!(from_slice::<Option<u64>>(&[2]).unwrap_err(), WireError::Tag { .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut bytes = Vec::new();
        put_bytes(&mut bytes, &[0xff, 0xfe]);
        assert!(matches!(from_slice::<String>(&bytes).unwrap_err(), WireError::Invalid(_)));
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes can never terminate inside u64.
        let bytes = [0x80u8; 11];
        assert!(matches!(
            Reader::new(&bytes).u64().unwrap_err(),
            WireError::Invalid(_) | WireError::Eof { .. }
        ));
        // 10 bytes whose final byte sets bits above 64 overflow.
        let mut over = vec![0xffu8; 9];
        over.push(0x7f);
        assert!(matches!(Reader::new(&over).u64().unwrap_err(), WireError::Invalid(_)));
    }
}
