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
//! The encoding is the natural packed little-endian form (payload bytes, no
//! framing): a `u64` is 8 bytes, a `[u8; N]` is its `N` bytes, a `Vec<T>` is
//! an 8-byte length prefix plus elements, an `Option<T>` a 0/1 byte plus the
//! value, a tuple or struct the concatenation of its fields, an enum a
//! 1-byte tag plus the variant's fields. This mirrors how the paper's
//! implementation serializes flat arrays over MPI.
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
//! Hot-path notes: types whose encoded form has a fixed length advertise it
//! through [`WireSize::FIXED_WIRE_BYTES`], which turns `Vec<T>::wire_bytes`
//! into O(1) instead of O(n); `Vec<u64>` (vertex/edge-id payloads, the bulk
//! of Distributed NE traffic) encodes and decodes through a single memcpy
//! instead of a per-element loop.

/// Estimated serialized size of a message in bytes.
pub trait WireSize {
    /// `Some(k)` when *every* value of this type encodes to exactly `k`
    /// bytes (primitives, tuples of fixed-size fields). Lets containers
    /// compute their size in O(1) and lets the decoder pre-validate vector
    /// lengths against the remaining input before allocating.
    const FIXED_WIRE_BYTES: Option<usize> = None;

    /// Number of bytes this value occupies on the wire.
    fn wire_bytes(&self) -> usize;
}

/// Serialization into the packed little-endian wire form.
///
/// Must emit exactly [`WireSize::wire_bytes`] bytes — the transport layer's
/// byte accounting and the loopback/bytes parity guarantee rely on it.
pub trait WireEncode: WireSize {
    /// Append this value's wire form to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Bulk-encode a slice of values. The default loops over `encode`;
    /// `u64` overrides it with a single memcpy (on little-endian targets).
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
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

    /// Bulk-decode `n` values. The default loops over `decode`; `u64`
    /// overrides it with a single memcpy (the zero-copy bulk read for
    /// vertex/edge-id payloads).
    fn decode_slice(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        // Cap the pre-allocation by what the remaining input could possibly
        // hold so a corrupt length prefix cannot trigger a huge allocation.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(out)
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
    /// A length prefix overflowed the addressable size.
    Overflow,
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
            WireError::Overflow => write!(f, "length prefix overflows addressable size"),
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
/// concatenation of its fields and has a `FIXED_WIRE_BYTES` exactly when
/// every field has one. The second form, `wire_struct!(<A, B> (0, 1))`, is
/// the same for a tuple of generic fields.
#[macro_export]
macro_rules! wire_struct {
    (@impls [$($g:ident),*] $t:ty, $r:ident, [$($f:tt),+], [$($fixed:expr),+], $build:expr) => {
        impl<$($g: $crate::WireSize),*> $crate::WireSize for $t {
            const FIXED_WIRE_BYTES: Option<usize> = $crate::wire::fixed_sum(&[$($fixed),+]);
            #[inline]
            fn wire_bytes(&self) -> usize {
                0 $(+ $crate::WireSize::wire_bytes(&self.$f))+
            }
        }
        impl<$($g: $crate::WireEncode),*> $crate::WireEncode for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::WireEncode::encode(&self.$f, buf);)+
            }
        }
        impl<$($g: $crate::WireDecode),*> $crate::WireDecode for $t {
            #[inline]
            fn decode($r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
                Ok($build)
            }
        }
    };
    (<$($g:ident),+> ($($i:tt),+)) => {
        $crate::wire_struct!(@impls [$($g),+] ($($g,)+), r, [$($i),+],
            [$($g::FIXED_WIRE_BYTES),+],
            ($(<$g as $crate::WireDecode>::decode(r)?,)+));
    };
    ($t:ty { $($f:ident),+ $(,)? }) => {
        $crate::wire_struct!(@impls [] $t, r, [$($f),+],
            [$($crate::wire::fixed_of(|s: &$t| &s.$f)),+],
            Self { $($f: $crate::WireDecode::decode(r)?),+ });
    };
}

/// The codec of an enum, from one table of its variants:
/// `wire_enum!(Type { 0 => Unit, 1 => Variant { a, b } })` — a 1-byte tag,
/// then the variant's fields in the listed order, each through its own
/// type's codec. A tag the table does not name decodes to
/// [`WireError::BadTag`].
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
/// platform so frames stay portable between 32- and 64-bit builds.
macro_rules! le_wire {
    ($($t:ty as $c:ty),*) => {
        $(
            impl WireSize for $t {
                const FIXED_WIRE_BYTES: Option<usize> = Some(std::mem::size_of::<$c>());
                #[inline]
                fn wire_bytes(&self) -> usize { std::mem::size_of::<$c>() }
            }
            impl WireEncode for $t {
                #[inline]
                fn encode(&self, buf: &mut Vec<u8>) {
                    buf.extend_from_slice(&(*self as $c).to_le_bytes());
                }
            }
            impl WireDecode for $t {
                #[inline]
                fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                    <$t>::try_from(<$c>::from_le_bytes(r.read_array()?))
                        .map_err(|_| WireError::Overflow)
                }
            }
        )*
    };
}

le_wire!(u8 as u8, u16 as u16, u32 as u32, i8 as i8, i16 as i16, i32 as i32, i64 as i64);
le_wire!(f32 as f32, f64 as f64, usize as u64, isize as i64);

// u64 gets hand-written impls so the slice hooks can use one memcpy for the
// hot `Vec<u64>` payloads (vertex and edge ids) instead of an element loop.
impl WireSize for u64 {
    const FIXED_WIRE_BYTES: Option<usize> = Some(8);
    #[inline]
    fn wire_bytes(&self) -> usize {
        8
    }
}

impl WireEncode for u64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }

    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        if cfg!(target_endian = "little") {
            // SAFETY: any `u64` slice is readable as initialized bytes of
            // length `8 * len`; on little-endian the in-memory layout *is*
            // the wire layout, so this is one bulk append.
            let bytes =
                unsafe { std::slice::from_raw_parts(items.as_ptr() as *const u8, items.len() * 8) };
            buf.extend_from_slice(bytes);
        } else {
            for item in items {
                item.encode(buf);
            }
        }
    }
}

impl WireDecode for u64 {
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.read_array().map(u64::from_le_bytes)
    }

    fn decode_slice(r: &mut WireReader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let total = n.checked_mul(8).ok_or(WireError::Overflow)?;
        let bytes = r.read_bytes(total)?;
        let mut out: Vec<u64> = Vec::with_capacity(n);
        // SAFETY: the allocation holds exactly `8 * n` writable bytes and
        // `bytes` has exactly that many; distinct allocations cannot
        // overlap; any bit pattern is a valid `u64`, so the copy fully
        // initializes the `n` elements exposed by `set_len`. This is the
        // zero-copy bulk read: one memcpy from the frame into the Vec,
        // with no redundant zero-fill beforehand.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, total);
            out.set_len(n);
        }
        // No-op on little-endian targets (the common case); byte-swaps on
        // big-endian so the wire format stays portable.
        for x in &mut out {
            *x = u64::from_le(*x);
        }
        Ok(out)
    }
}

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

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bytes(&self) -> usize {
        match T::FIXED_WIRE_BYTES {
            // Fast path: fixed-size elements make the vector's size O(1).
            Some(k) => 8 + k * self.len(),
            None => 8 + self.iter().map(WireSize::wire_bytes).sum::<usize>(),
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        T::encode_slice(self, buf);
    }
}

/// Bound on decoded vector lengths for *zero-size* element types, whose
/// elements consume no input and so cannot be validated against the
/// remaining frame — without it a corrupt prefix could demand 2^64
/// iterations of busywork.
const MAX_ZERO_SIZE_ELEMS: usize = 1 << 24;

impl<T: WireDecode + WireSize> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = usize::decode(r)?;
        match T::FIXED_WIRE_BYTES {
            Some(0) if n > MAX_ZERO_SIZE_ELEMS => return Err(WireError::Overflow),
            Some(k) => {
                // Pre-validate the length prefix against the remaining
                // input so a corrupt frame errors out before any large
                // allocation.
                let needed = n.checked_mul(k).ok_or(WireError::Overflow)?;
                if r.remaining() < needed {
                    return Err(WireError::Truncated { needed, available: r.remaining() });
                }
            }
            None => {}
        }
        T::decode_slice(r, n)
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
        assert_eq!(vec![1u64, 2, 3].wire_bytes(), 8 + 24);
        assert_eq!(Some(5u64).wire_bytes(), 9);
        assert_eq!(None::<u64>.wire_bytes(), 1);
        let nested: Vec<(u64, u32)> = vec![(1, 2), (3, 4)];
        assert_eq!(nested.wire_bytes(), 8 + 2 * 12);
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
        // The O(1) fast path must agree with the generic fallback.
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(v.wire_bytes(), 8 + v.iter().map(WireSize::wire_bytes).sum::<usize>());
        let nested: Vec<Vec<u64>> = vec![(0..5).collect(), vec![], (0..3).collect()];
        assert_eq!(nested.wire_bytes(), 8 + nested.iter().map(WireSize::wire_bytes).sum::<usize>());
    }

    #[test]
    fn bulk_u64_roundtrip_matches_element_loop() {
        let v: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let bulk = v.to_wire();
        // Reference encoding: length prefix + per-element loop.
        let mut reference = Vec::new();
        (v.len() as u64).encode(&mut reference);
        for x in &v {
            reference.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(bulk, reference);
        assert_eq!(Vec::<u64>::from_wire(&bulk).unwrap(), v);
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

    #[test]
    fn corrupt_length_prefix_errors_before_allocating() {
        // Claims u64::MAX elements with an empty body: must error, not OOM.
        let bytes = u64::MAX.to_wire();
        let err = Vec::<u64>::from_wire(&bytes).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. } | WireError::Overflow), "{err}");
    }

    #[test]
    fn zero_size_element_lengths_are_bounded() {
        // Zero-size elements consume no input, so the length prefix cannot
        // be validated against remaining bytes; absurd counts must still
        // error instead of looping for 2^64 iterations.
        let err = Vec::<()>::from_wire(&u64::MAX.to_wire()).unwrap_err();
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
        // The fixed size is what lets a vector of records size itself in
        // O(1) and pre-validate its length prefix.
        assert_eq!(vec![header(); 3].wire_bytes(), 8 + 3 * 15);
        let err = Vec::<Header>::from_wire(&u64::MAX.to_wire()).unwrap_err();
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
