//! Wire codec: size estimation plus a real encode/decode path.
//!
//! The simulated cluster supports two transports (see [`crate::transport`]):
//! the loopback backend moves Rust values by pointer and needs an explicit
//! *estimate* of how many bytes each message would occupy on a real
//! interconnect; the bytes backend actually serializes every envelope and
//! charges the *actual* encoded length. Three traits cover both worlds —
//! [`WireSize`] (the byte estimate), [`WireEncode`] (serialization into a
//! little-endian byte stream) and [`WireDecode`] (checked deserialization:
//! truncated or trailing input is an error, never a panic) — and every type
//! that crosses a process boundary gets all three from **one table**:
//! [`wire_struct!`](crate::wire_struct) lists a struct's fields once, in
//! wire order; [`wire_enum!`](crate::wire_enum) lists an enum's tags,
//! variants and fields once. The `struct`/`enum` definition with its docs
//! stays ordinary Rust; the table is the layout, and because size, encoder
//! and decoder are expanded from the same list, `encode` emits exactly
//! [`WireSize::wire_bytes`] bytes by construction — which is what lets the
//! loopback estimate and the bytes-backend actual agree
//! ([`WireEncode::to_wire`] still asserts it in debug builds).
//!
//! The encoding is packed little-endian with no framing. Outside a
//! sequence every value has a fixed layout: a `u64` is 8 bytes, a
//! `[u8; N]` its `N` bytes, an `Option<T>` a 0/1 byte plus the value, a
//! tuple or struct the concatenation of its fields, an enum a 1-byte tag
//! plus the variant's fields. A `Vec<T>` is its length as a canonical
//! unsigned LEB128 varint, then its elements in their *sequence form*:
//! every `u16`, `u32`, `u64` and `usize` that is an element, a field of a
//! tuple or `wire_struct!` element, or inside a nested vector is a varint
//! too. Everything else keeps its plain form in a sequence: bytes (`u8`,
//! `bool`, `[u8; N]`), signed integers, floats, and enum and `Option`
//! elements. Vertex, edge and partition ids — the bulk of Distributed NE
//! traffic — are small, so an id below 2^7 travels in one byte, below 2^14
//! in two and below 2^21 in three, while fixed-size records outside
//! sequences (the bootstrap hello, the collective word block) keep a
//! length known before the bytes arrive. "Canonical" means minimal: a
//! varint with a redundant zero group, or longer than the ten bytes a
//! `u64` needs, is [`WireError::NonCanonical`], so every value has exactly
//! one encoding.
//!
//! # Adding a message
//!
//! 1. Define the `enum` (or `struct`) as usual, with its docs.
//! 2. Below it write the table: `wire_enum!(Msg { 0 => Ping, 1 => Put { key, value } });`
//!    (or `wire_struct!(Rec { a, b });`) — field order is wire order.
//! 3. A new variant or field is one more table entry; never reuse a tag.
//! 4. Field types need only implement the three traits themselves
//!    (primitives, `[u8; N]`, tuples, `Vec`, `Option`, other table types).
//! 5. Pin the bytes of one value per variant in a golden test — a round
//!    trip cannot see a change that encoder and decoder share.
//!
//! Hot-path notes: a vector's size is a pass over its elements (one
//! `leading_zeros` per integer) and its encoding a per-element loop;
//! [`WireEncode::to_wire`] sizes its buffer once, so the encoder never
//! reallocates. A one-byte varint takes a single branch to decode.

/// Estimated serialized size of a message in bytes.
pub trait WireSize {
    /// `Some(k)` when *every* value of this type encodes to exactly `k`
    /// bytes outside a sequence (primitives, tuples of fixed-size fields):
    /// a reader of a fixed-size record knows how many bytes to wait for.
    /// `Some(0)` also marks the zero-size element types whose vector
    /// lengths cannot be validated against the remaining input.
    const FIXED_WIRE_BYTES: Option<usize> = None;

    /// Number of bytes this value occupies on the wire.
    fn wire_bytes(&self) -> usize;

    /// Number of bytes this value occupies as (part of) a sequence
    /// element, where unsigned integers are varints. Defaults to
    /// [`WireSize::wire_bytes`]: a type without integers inside has one form.
    #[inline]
    fn seq_wire_bytes(&self) -> usize {
        self.wire_bytes()
    }
}

/// Serialization into the packed little-endian wire form.
///
/// Must emit exactly [`WireSize::wire_bytes`] bytes — the transport layer's
/// byte accounting and the loopback/bytes parity guarantee rely on it.
pub trait WireEncode: WireSize {
    /// Append this value's wire form to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Append this value's sequence form to `buf`: exactly
    /// [`WireSize::seq_wire_bytes`] bytes.
    #[inline]
    fn encode_in_seq(&self, buf: &mut Vec<u8>) {
        self.encode(buf);
    }

    /// Encode into a fresh, exactly-sized buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_bytes());
        self.encode(&mut buf);
        debug_assert_eq!(
            buf.len(),
            self.wire_bytes(),
            "WireEncode must emit exactly wire_bytes() bytes"
        );
        buf
    }
}

/// Checked deserialization from the packed little-endian wire form.
pub trait WireDecode: Sized {
    /// Decode one value from the reader, advancing its cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Decode one value in its sequence form.
    #[inline]
    fn decode_in_seq(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Self::decode(r)
    }

    /// Decode a value that must consume `bytes` exactly.
    fn from_wire(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing { remaining: r.remaining() });
        }
        Ok(v)
    }
}

/// Decoding failure. Malformed input (truncated frames, bad tags, absurd
/// length prefixes) surfaces as an error, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// `from_wire` decoded a value without consuming the whole input.
    Trailing {
        /// Unconsumed bytes after the value.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix overflowed the addressable size, or an integer
    /// its type.
    Overflow,
    /// A varint was not in its one minimal form: a redundant zero group,
    /// or longer than ten bytes.
    NonCanonical,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, {available} available")
            }
            WireError::Trailing { remaining } => {
                write!(f, "trailing garbage: {remaining} bytes after value")
            }
            WireError::BadTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::Overflow => write!(f, "length prefix or integer overflows its type"),
            WireError::NonCanonical => write!(f, "varint is not in its minimal form"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked cursor over an encoded byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next byte, not consumed — for codecs whose first byte decides
    /// which decoder reads it.
    #[inline]
    pub fn peek(&self) -> Result<u8, WireError> {
        self.buf.get(self.pos).copied().ok_or(WireError::Truncated { needed: 1, available: 0 })
    }

    /// Consume exactly `n` bytes, or fail without advancing.
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, available: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume exactly `N` bytes as a fixed-size array.
    #[inline]
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let bytes = self.read_bytes(N)?;
        Ok(bytes.try_into().expect("read_bytes returned exactly N bytes"))
    }

    /// Consume one canonical unsigned LEB128 varint, or fail without
    /// advancing.
    #[inline]
    fn read_varint(&mut self) -> Result<u64, WireError> {
        let rest = &self.buf[self.pos..];
        let mut value = 0;
        for (i, &byte) in rest.iter().take(10).enumerate() {
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                // The last group: not a redundant zero, and in the tenth
                // byte no more than bit 63.
                if byte == 0 && i > 0 {
                    return Err(WireError::NonCanonical);
                }
                if i == 9 && byte > 1 {
                    return Err(WireError::Overflow);
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(if rest.len() >= 10 {
            WireError::NonCanonical
        } else {
            WireError::Truncated { needed: rest.len() + 1, available: rest.len() }
        })
    }
}

/// Bytes of `x` as an unsigned LEB128 varint: one per started group of 7 bits.
#[inline]
fn varint_len(x: u64) -> usize {
    (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// Append `x` as a canonical unsigned LEB128 varint.
#[inline]
fn put_varint(buf: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        buf.push(x as u8 | 0x80);
        x >>= 7;
    }
    buf.push(x as u8);
}

/// `Some(sum)` when every part is `Some` — the [`WireSize::FIXED_WIRE_BYTES`]
/// of a product of fields.
#[doc(hidden)]
pub const fn fixed_sum(parts: &[Option<usize>]) -> Option<usize> {
    let mut sum = 0;
    let mut i = 0;
    while i < parts.len() {
        match parts[i] {
            Some(k) => sum += k,
            None => return None,
        }
        i += 1;
    }
    Some(sum)
}

/// `T::FIXED_WIRE_BYTES` of the field a projection returns: how
/// [`wire_struct!`](crate::wire_struct) reads a field's type off its name.
#[doc(hidden)]
pub const fn fixed_of<S, T: WireSize>(_field: fn(&S) -> &T) -> Option<usize> {
    T::FIXED_WIRE_BYTES
}

/// The codec of a struct, from one list of its fields in wire order:
/// `wire_struct!(Type { a, b, c })`. Each field travels through its own
/// type's codec (`decode` infers the types), so the struct is the
/// concatenation of its fields — in a sequence, of their sequence forms —
/// and has a `FIXED_WIRE_BYTES` exactly when every field has one. The
/// second form, `wire_struct!(<A, B> (0, 1))`, is the same for a tuple of
/// generic fields.
#[macro_export]
macro_rules! wire_struct {
    // Each method is expanded twice, as the plain form and as the sequence
    // form, and calls the method of the same name on every field.
    (@impls [$($g:ident),*] $t:ty, [$($f:tt),+], [$($fixed:expr),+], $shape:tt) => {
        impl<$($g: $crate::WireSize),*> $crate::WireSize for $t {
            const FIXED_WIRE_BYTES: Option<usize> = $crate::wire::fixed_sum(&[$($fixed),+]);
            $crate::wire_struct!(@size wire_bytes [$($f),+]);
            $crate::wire_struct!(@size seq_wire_bytes [$($f),+]);
        }
        impl<$($g: $crate::WireEncode),*> $crate::WireEncode for $t {
            $crate::wire_struct!(@encode encode [$($f),+]);
            $crate::wire_struct!(@encode encode_in_seq [$($f),+]);
        }
        impl<$($g: $crate::WireDecode),*> $crate::WireDecode for $t {
            $crate::wire_struct!(@decode decode $shape);
            $crate::wire_struct!(@decode decode_in_seq $shape);
        }
    };
    (@size $m:ident [$($f:tt),+]) => {
        #[inline]
        fn $m(&self) -> usize {
            0 $(+ $crate::WireSize::$m(&self.$f))+
        }
    };
    (@encode $m:ident [$($f:tt),+]) => {
        #[inline]
        fn $m(&self, buf: &mut Vec<u8>) {
            $($crate::WireEncode::$m(&self.$f, buf);)+
        }
    };
    (@decode $m:ident [$($g:ident),+]) => {
        #[inline]
        fn $m(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
            Ok(($(<$g as $crate::WireDecode>::$m(r)?,)+))
        }
    };
    (@decode $m:ident {$($f:ident),+}) => {
        #[inline]
        fn $m(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
            Ok(Self { $($f: $crate::WireDecode::$m(r)?),+ })
        }
    };
    (<$($g:ident),+> ($($i:tt),+)) => {
        $crate::wire_struct!(@impls [$($g),+] ($($g,)+), [$($i),+],
            [$($g::FIXED_WIRE_BYTES),+], [$($g),+]);
    };
    ($t:ty { $($f:ident),+ $(,)? }) => {
        $crate::wire_struct!(@impls [] $t, [$($f),+],
            [$($crate::wire::fixed_of(|s: &$t| &s.$f)),+], {$($f),+});
    };
}

/// The codec of an enum, from one table of its variants:
/// `wire_enum!(Type { 0 => Unit, 1 => Variant { a, b } })` — a 1-byte tag,
/// then the variant's fields in the listed order, each through its own
/// type's codec. A tag the table does not name decodes to
/// [`WireError::BadTag`]. An enum has one form: inside a sequence it is
/// encoded as outside.
#[macro_export]
macro_rules! wire_enum {
    ($t:ty { $($tag:literal => $v:ident $({ $($f:ident),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::WireSize for $t {
            fn wire_bytes(&self) -> usize {
                match self {
                    $(Self::$v $({ $($f),+ })? => 1 $($(+ $crate::WireSize::wire_bytes($f))+)?,)+
                }
            }
        }
        impl $crate::WireEncode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$v $({ $($f),+ })? => {
                        buf.push($tag);
                        $($($crate::WireEncode::encode($f, buf);)+)?
                    })+
                }
            }
        }
        impl $crate::WireDecode for $t {
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
                match r.read_array::<1>()?[0] {
                    $($tag => Ok(Self::$v $({ $($f: $crate::WireDecode::decode(r)?),+ })?),)+
                    tag => Err($crate::WireError::BadTag { tag }),
                }
            }
        }
    };
}

/// Integers and floats travel as the little-endian bytes of a carrier type:
/// themselves, except `usize`/`isize`, which are 8-byte words regardless of
/// platform so frames stay portable between 32- and 64-bit builds. The
/// `varint` rows are the unsigned integers wider than a byte, whose
/// sequence form is a varint.
macro_rules! le_wire {
    (@impls $t:ty, $c:ty, [$($size:tt)*], [$($enc:tt)*], [$($dec:tt)*]) => {
        impl WireSize for $t {
            const FIXED_WIRE_BYTES: Option<usize> = Some(std::mem::size_of::<$c>());
            #[inline]
            fn wire_bytes(&self) -> usize { std::mem::size_of::<$c>() }
            $($size)*
        }
        impl WireEncode for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&(*self as $c).to_le_bytes());
            }
            $($enc)*
        }
        impl WireDecode for $t {
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                <$t>::try_from(<$c>::from_le_bytes(r.read_array()?))
                    .map_err(|_| WireError::Overflow)
            }
            $($dec)*
        }
    };
    (fixed: $($t:ty as $c:ty),*) => {
        $(le_wire!(@impls $t, $c, [], [], []);)*
    };
    (varint: $($t:ty as $c:ty),*) => {
        $(le_wire!(@impls $t, $c, [
            #[inline]
            fn seq_wire_bytes(&self) -> usize { varint_len(*self as u64) }
        ], [
            #[inline]
            fn encode_in_seq(&self, buf: &mut Vec<u8>) { put_varint(buf, *self as u64) }
        ], [
            #[inline]
            fn decode_in_seq(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                <$t>::try_from(r.read_varint()?).map_err(|_| WireError::Overflow)
            }
        ]);)*
    };
}

le_wire!(fixed: u8 as u8, i8 as i8, i16 as i16, i32 as i32, i64 as i64, isize as i64);
le_wire!(fixed: f32 as f32, f64 as f64);
le_wire!(varint: u16 as u16, u32 as u32, u64 as u64, usize as u64);

impl WireSize for bool {
    const FIXED_WIRE_BYTES: Option<usize> = Some(1);
    #[inline]
    fn wire_bytes(&self) -> usize {
        1
    }
}

impl WireEncode for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
}

impl WireDecode for bool {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

impl WireSize for () {
    const FIXED_WIRE_BYTES: Option<usize> = Some(0);
    #[inline]
    fn wire_bytes(&self) -> usize {
        0
    }
}

impl WireEncode for () {
    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}
}

impl WireDecode for () {
    #[inline]
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<const N: usize> WireSize for [u8; N] {
    const FIXED_WIRE_BYTES: Option<usize> = Some(N);
    #[inline]
    fn wire_bytes(&self) -> usize {
        N
    }
}

impl<const N: usize> WireEncode for [u8; N] {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
}

impl<const N: usize> WireDecode for [u8; N] {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.read_array()
    }
}

wire_struct!(<A, B> (0, 1));
wire_struct!(<A, B, C> (0, 1, 2));

// A vector has one form: inside a sequence it is the same varint length
// and elements in their sequence form.
impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bytes(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(WireSize::seq_wire_bytes).sum::<usize>()
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode_in_seq(buf);
        }
    }
}

/// Bound on decoded vector lengths for *zero-size* element types, whose
/// elements consume no input and so cannot be validated against the
/// remaining frame — without it a corrupt prefix could demand 2^64
/// iterations of busywork.
const MAX_ZERO_SIZE_ELEMS: usize = 1 << 24;

impl<T: WireDecode + WireSize> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::try_from(r.read_varint()?).map_err(|_| WireError::Overflow)?;
        if T::FIXED_WIRE_BYTES == Some(0) {
            if n > MAX_ZERO_SIZE_ELEMS {
                return Err(WireError::Overflow);
            }
        } else if n > r.remaining() {
            // Every other element takes at least one byte, so a corrupt
            // length prefix errors out here, before any allocation.
            return Err(WireError::Truncated { needed: n, available: r.remaining() });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode_in_seq(r)?);
        }
        Ok(out)
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_bytes)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.read_array::<1>()?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag { tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trip plus the estimate==actual invariant for one value.
    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(bytes.len(), v.wire_bytes(), "estimate must equal encoded length");
        assert_eq!(T::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives() {
        assert_eq!(7u64.wire_bytes(), 8);
        assert_eq!(1u8.wire_bytes(), 1);
        assert_eq!(true.wire_bytes(), 1);
        assert_eq!(().wire_bytes(), 0);
        roundtrip(7u64);
        roundtrip(u64::MAX);
        roundtrip(-3i64);
        roundtrip(0.25f64);
        roundtrip(true);
        roundtrip(42usize);
        roundtrip(1u8);
    }

    #[test]
    fn composites() {
        assert_eq!((1u32, 2u64).wire_bytes(), 12);
        assert_eq!(vec![1u64, 2, 3].wire_bytes(), 1 + 3);
        assert_eq!(Some(5u64).wire_bytes(), 9);
        assert_eq!(None::<u64>.wire_bytes(), 1);
        let nested: Vec<(u64, u32)> = vec![(1, 2), (3, 4)];
        assert_eq!(nested.wire_bytes(), 1 + 2 * 2);
        roundtrip((1u32, 2u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Some((1u64, 0.5f64)));
        roundtrip(None::<u64>);
        roundtrip(nested);
        roundtrip(vec![vec![1u64], vec![], vec![2, 3]]);
    }

    #[test]
    fn fixed_size_constants_propagate() {
        assert_eq!(<u64 as WireSize>::FIXED_WIRE_BYTES, Some(8));
        assert_eq!(<(u64, u32) as WireSize>::FIXED_WIRE_BYTES, Some(12));
        assert_eq!(<(u64, f64) as WireSize>::FIXED_WIRE_BYTES, Some(16));
        assert_eq!(<(u8, u16, u32) as WireSize>::FIXED_WIRE_BYTES, Some(7));
        assert_eq!(<Vec<u64> as WireSize>::FIXED_WIRE_BYTES, None);
        assert_eq!(<(u64, Vec<u64>) as WireSize>::FIXED_WIRE_BYTES, None);
        assert_eq!(<Option<u64> as WireSize>::FIXED_WIRE_BYTES, None);
    }

    #[test]
    fn vec_wire_bytes_matches_per_element_sum() {
        // A varint length, then every element in its sequence form.
        let v: Vec<u64> = (0..200).collect();
        assert_eq!(v.wire_bytes(), 2 + 128 + 72 * 2);
        let nested: Vec<Vec<u64>> = vec![(0..5).collect(), vec![], (0..3).collect()];
        assert_eq!(nested.wire_bytes(), 1 + (1 + 5) + 1 + (1 + 3));
        roundtrip(v);
        roundtrip(nested);
    }

    #[test]
    fn varints_are_minimal_leb128() {
        let cases: [(u64, &[u8]); 7] = [
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (1 << 21, &[0x80, 0x80, 0x80, 0x01]),
            (u64::MAX, &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]),
        ];
        for (x, bytes) in cases {
            let wire = vec![x].to_wire();
            assert_eq!(wire[0], 1, "length prefix of one element");
            assert_eq!(&wire[1..], bytes, "varint of {x}");
            assert_eq!(x.seq_wire_bytes(), bytes.len());
            assert_eq!(Vec::<u64>::from_wire(&wire), Ok(vec![x]));
        }
        // Outside a sequence an integer keeps its width.
        assert_eq!(300u64.to_wire(), 300u64.to_le_bytes());
        roundtrip(vec![0u16, 127, 128, u16::MAX]);
        roundtrip(vec![0u32, 1 << 14, u32::MAX]);
        roundtrip(vec![0usize, 1 << 28, usize::MAX]);
        // Bytes, signed integers and floats keep their width in a sequence too.
        assert_eq!(vec![1u8, 255].to_wire(), [2, 1, 255]);
        assert_eq!(vec![-1i32].wire_bytes(), 1 + 4);
        assert_eq!(vec![(1u64, 0.5f64)].wire_bytes(), 1 + 1 + 8);
    }

    #[test]
    fn malformed_varints_are_typed_errors() {
        // A redundant zero group, as a length prefix and as an element.
        assert_eq!(Vec::<u64>::from_wire(&[0x80, 0x00]), Err(WireError::NonCanonical));
        assert_eq!(Vec::<u64>::from_wire(&[0x01, 0x81, 0x00]), Err(WireError::NonCanonical));
        // Eleven bytes: longer than any u64 needs.
        let mut overlong = vec![0x01];
        overlong.extend([0x80; 10]);
        overlong.push(0x01);
        assert_eq!(Vec::<u64>::from_wire(&overlong), Err(WireError::NonCanonical));
        // Ten bytes whose last group spills past bit 63.
        let mut spill = vec![0x01];
        spill.extend([0xff; 9]);
        spill.push(0x02);
        assert_eq!(Vec::<u64>::from_wire(&spill), Err(WireError::Overflow));
        // An element too wide for its type.
        let wide = vec![1u64 << 32].to_wire();
        assert_eq!(Vec::<u32>::from_wire(&wide), Err(WireError::Overflow));
        assert_eq!(Vec::<u32>::from_wire(&vec![u64::from(u32::MAX)].to_wire()), Ok(vec![u32::MAX]));
        // A varint cut short.
        assert!(matches!(Vec::<u64>::from_wire(&[0x01, 0x80]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn truncated_input_errors_without_panicking() {
        let full = vec![1u64, 2, 3].to_wire();
        for cut in 0..full.len() {
            let err = Vec::<u64>::from_wire(&full[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must fail to decode");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u64.to_wire();
        bytes.push(0);
        assert_eq!(u64::from_wire(&bytes), Err(WireError::Trailing { remaining: 1 }));
    }

    /// The varint length prefix of a vector of `n` elements.
    fn prefix(n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, n);
        buf
    }

    #[test]
    fn corrupt_length_prefix_errors_before_allocating() {
        // Claims u64::MAX elements with an empty body: must error, not OOM.
        let err = Vec::<u64>::from_wire(&prefix(u64::MAX)).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. } | WireError::Overflow), "{err}");
        // Every element takes at least one byte, so a count above the
        // remaining input fails before the vector is allocated.
        let mut five = prefix(5);
        five.extend([1, 2, 3, 4]);
        assert_eq!(
            Vec::<u64>::from_wire(&five),
            Err(WireError::Truncated { needed: 5, available: 4 })
        );
        let err = Vec::<Vec<u64>>::from_wire(&prefix(1 << 40)).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. } | WireError::Overflow), "{err}");
    }

    #[test]
    fn zero_size_element_lengths_are_bounded() {
        // Zero-size elements consume no input, so the length prefix cannot
        // be validated against remaining bytes; absurd counts must still
        // error instead of looping for 2^64 iterations.
        let err = Vec::<()>::from_wire(&prefix(u64::MAX)).unwrap_err();
        assert_eq!(err, WireError::Overflow);
        roundtrip(vec![(), (), ()]);
    }

    #[test]
    fn bad_tags_are_errors() {
        assert_eq!(bool::from_wire(&[2]), Err(WireError::BadTag { tag: 2 }));
        assert_eq!(Option::<u64>::from_wire(&[7]), Err(WireError::BadTag { tag: 7 }));
    }

    // ---------------------------------------------------- the two tables --

    #[derive(Debug, Clone, PartialEq)]
    enum Probe {
        Unit,
        Pair { id: u64, weight: f64 },
        Nested { maybe: Option<Vec<u32>>, rows: Vec<Option<(u64, u8)>>, header: Header },
    }
    crate::wire_enum!(Probe { 0 => Unit, 3 => Pair { id, weight }, 7 => Nested { maybe, rows, header } });

    #[derive(Debug, Clone, PartialEq)]
    struct Header {
        magic: [u8; 8],
        rank: u32,
        flags: (u8, u16),
    }
    crate::wire_struct!(Header { magic, rank, flags });

    #[derive(Debug, Clone, PartialEq)]
    struct Open {
        header: Header,
        tail: Vec<u64>,
    }
    crate::wire_struct!(Open { header, tail });

    fn header() -> Header {
        Header { magic: *b"PROBE\0\x01\xff", rank: 9, flags: (1, 0x0203) }
    }

    fn probes() -> Vec<Probe> {
        vec![
            Probe::Unit,
            Probe::Pair { id: u64::MAX, weight: -0.5 },
            Probe::Nested { maybe: None, rows: Vec::new(), header: header() },
            Probe::Nested {
                maybe: Some(vec![1, 2, 3]),
                rows: vec![Some((7, 1)), None, Some((8, 2))],
                header: header(),
            },
        ]
    }

    #[test]
    fn tables_emit_exactly_wire_bytes_and_roundtrip() {
        for p in probes() {
            roundtrip(p);
        }
        roundtrip(header());
        roundtrip(Open { header: header(), tail: vec![4, 5] });
        roundtrip(vec![header(), header()]);
    }

    #[test]
    fn table_layout_is_tag_then_fields_in_listed_order() {
        assert_eq!(Probe::Unit.to_wire(), [0]);
        let pair = Probe::Pair { id: 2, weight: 0.0 }.to_wire();
        assert_eq!(pair, [3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(header().to_wire(), *b"PROBE\0\x01\xff\x09\0\0\0\x01\x03\x02");
        // In a sequence the same fields recurse into their sequence forms:
        // `rank` 9 and `flags.1` 0x0203 become varints, the bytes stay.
        assert_eq!(vec![header()].to_wire(), *b"\x01PROBE\0\x01\xff\x09\x01\x83\x04");
        // Enum and `Option` elements keep their one form.
        let rows = vec![Some((300u64, 7u8)), None];
        assert_eq!(rows.to_wire(), [2, 1, 0x2c, 0x01, 0, 0, 0, 0, 0, 0, 7, 0]);
        let probes = vec![Probe::Pair { id: 2, weight: 0.0 }];
        assert_eq!(probes.to_wire()[..4], [1, 3, 2, 0]);
        assert_eq!(probes.wire_bytes(), 1 + 17);
    }

    #[test]
    fn every_strict_prefix_of_a_table_value_fails() {
        for p in probes() {
            let bytes = p.to_wire();
            for cut in 0..bytes.len() {
                assert!(Probe::from_wire(&bytes[..cut]).is_err(), "{cut}-byte prefix of {p:?}");
            }
        }
        let bytes = header().to_wire();
        for cut in 0..bytes.len() {
            assert!(Header::from_wire(&bytes[..cut]).is_err(), "{cut}-byte prefix of header");
        }
    }

    #[test]
    fn table_rejects_unknown_tags_and_trailing_bytes() {
        for tag in [1u8, 2, 4, 8, 255] {
            assert_eq!(Probe::from_wire(&[tag]), Err(WireError::BadTag { tag }));
        }
        for p in probes() {
            let mut bytes = p.to_wire();
            bytes.push(0);
            assert_eq!(Probe::from_wire(&bytes), Err(WireError::Trailing { remaining: 1 }));
        }
        let mut bytes = header().to_wire();
        bytes.push(0);
        assert_eq!(Header::from_wire(&bytes), Err(WireError::Trailing { remaining: 1 }));
    }

    #[test]
    fn struct_tables_are_fixed_size_exactly_when_every_field_is() {
        assert_eq!(<[u8; 8] as WireSize>::FIXED_WIRE_BYTES, Some(8));
        assert_eq!(<Header as WireSize>::FIXED_WIRE_BYTES, Some(8 + 4 + 3));
        assert_eq!(<Open as WireSize>::FIXED_WIRE_BYTES, None);
        assert_eq!(<Probe as WireSize>::FIXED_WIRE_BYTES, None);
        // The fixed size is the record's plain form; in a sequence its
        // integers are varints.
        assert_eq!(vec![header(); 3].wire_bytes(), 1 + 3 * 12);
        let err = Vec::<Header>::from_wire(&prefix(u64::MAX)).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. } | WireError::Overflow), "{err}");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut r = WireReader::new(&[5, 6]);
        assert_eq!(r.peek(), Ok(5));
        assert_eq!(r.read_array::<1>(), Ok([5]));
        assert_eq!(r.peek(), Ok(6));
        r.read_bytes(1).unwrap();
        assert_eq!(r.peek(), Err(WireError::Truncated { needed: 1, available: 0 }));
    }

    #[test]
    fn word_sized_integers_travel_as_eight_bytes() {
        assert_eq!(usize::MAX.wire_bytes(), 8);
        roundtrip(usize::MAX);
        roundtrip(isize::MIN);
        roundtrip(-1isize);
    }
}
