//! Message-body encoding: the [`Wire`] trait, its implementations for the
//! leaf types, and the [`wire!`](crate::wire!) macro that derives a
//! composite's layout from one declaration.
//!
//! A type that crosses a socket or lands in a checkpoint implements
//! [`Wire`]: `put` appends its bytes to a `Vec<u8>`, `take` reads them back
//! off a [`Cursor`], and `MIN_LEN` is the fewest bytes any value of the
//! type occupies. All multi-byte integers and floats are little-endian,
//! matching the block-frame format. The leaves (scalars, strings,
//! `Option`, `Vec`, …) are implemented below, each documented with its
//! layout; a struct or tagged enum lists its fields **once** in a `wire!`
//! invocation, which yields `MIN_LEN`, `put` and `take` together, so the
//! two directions cannot drift apart and a forgotten field is a compile
//! error.
//!
//! ## Allocation rule
//!
//! Decoding never trusts a length it read. A sequence's `u32` count is
//! checked against the bytes actually left in the [`Cursor`], at
//! the element type's derived `MIN_LEN` bytes apiece, before
//! `Vec::with_capacity` runs — so a body of `n` bytes can reserve at most
//! `n / MIN_LEN` elements, and no call site counts an element size by
//! hand. Truncated or malformed bodies end in
//! [`NetError::Corrupt`](crate::NetError), never a panic.
//!
//! ## Foreign types
//!
//! A crate can implement [`Wire`] for its own types only. For a type it
//! merely uses (a gate matrix from `qcs-statevec`, say), or for a second
//! layout of a type that already has one (`usize` as a `u32`: [`Idx32`]),
//! it implements `Wire<T>` on a marker type instead and names the marker
//! per field: `gate: Gate1 as GateWire`. Markers compose through the
//! containers: `Vec<Idx32>` lays out a `Vec<usize>`.
//!
//! ## Changing a layout
//!
//! Golden fixtures (`crates/qcs-net/tests/fixtures/`, `tests/fixtures/`)
//! pin every layout's bytes. A deliberate change is one commit: edit the
//! one declaration, bump [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) (or
//! the checkpoint magic), regenerate the fixture.

use crate::NetError;
use qcs_compress::{CodecId, ErrorBound};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One byte layout of `T` inside a frame body or a checkpoint. A type
/// implements `Wire` (that is, `Wire<Self>`) for its own layout; a marker
/// type implements `Wire<T>` to give `T` a layout from outside `T`'s crate.
pub trait Wire<T = Self> {
    /// The fewest bytes any value encodes to. Bounds sequence counts
    /// before allocation; see the module docs.
    const MIN_LEN: usize;
    /// Append `v`'s encoding to `buf`.
    fn put(v: &T, buf: &mut Vec<u8>);
    /// Decode one value, consuming exactly the bytes `put` wrote.
    fn take(cur: &mut Cursor) -> Result<T, NetError>;
}

/// Encode `v` as a whole frame body.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    T::put(v, &mut buf);
    buf
}

/// Decode a whole frame body as one `T`; trailing bytes are an error.
pub fn decode<T: Wire>(body: &[u8]) -> Result<T, NetError> {
    let mut cur = Cursor::new(body);
    let v = T::take(&mut cur)?;
    cur.finish()?;
    Ok(v)
}

/// Smallest of `lens` (a tagged enum's shortest variant), in const context.
#[doc(hidden)]
pub const fn min_of(lens: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// Derive [`Wire`] for a struct or a tagged enum from one field list.
///
/// ```
/// use qcs_net::wire::{decode, encode, Idx32, Wire};
///
/// qcs_net::wire! {
///     /// Defined here: the struct and its layout are one declaration.
///     #[derive(Debug, PartialEq)]
///     pub struct Probe { pub qubit: usize as Idx32, shots: Vec<u64>, label: Option<String> }
/// }
/// #[derive(Debug, PartialEq)]
/// enum Ask { Ping, Measure(Probe), Seek { block: usize } }
/// qcs_net::wire! { impl enum Ask { 0 => Ping {}, 1 => Measure { 0: Probe }, 2 => Seek { block: usize } } }
///
/// assert_eq!(Probe::MIN_LEN, 4 + 4 + 1);
/// assert_eq!(Ask::MIN_LEN, 1);
/// let ask = Ask::Measure(Probe { qubit: 3, shots: vec![7], label: None });
/// assert_eq!(decode::<Ask>(&encode(&ask)).unwrap(), ask);
/// ```
///
/// `struct T { .. }` defines `T` (attributes, visibilities and doc
/// comments pass through) and implements [`Wire`] for it; `impl struct T`
/// and `impl enum T` implement it for a type defined elsewhere in the
/// crate. Fields are written and read in the order listed, which need not
/// be the order of the type's definition. A tuple field is named by its
/// position (`0: Probe`), a unit variant has an empty list, and an enum's
/// tag is one byte. `field: T as M` routes the field through the marker
/// `M: Wire<T>`; `impl enum T as M { .. }` implements `Wire<T>` for the
/// marker `M`, for enums defined in another crate.
#[macro_export]
macro_rules! wire {
    (impl struct $name:ident { $($field:tt: $fty:ty $(as $via:ty)?),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 0 $(+ $crate::wire!(@min $fty $(as $via)?))*;
            fn put(v: &Self, buf: &mut Vec<u8>) {
                $($crate::wire!(@put &v.$field, buf; $fty $(as $via)?);)*
            }
            fn take(cur: &mut $crate::Cursor) -> Result<Self, $crate::NetError> {
                Ok(Self { $($field: $crate::wire!(@take cur; $fty $(as $via)?)?),* })
            }
        }
    };
    (impl enum $name:ident { $($variants:tt)* }) => {
        $crate::wire! { impl enum $name as $name { $($variants)* } }
    };
    // One `if let` per field rather than one pattern per variant: a
    // positional field (`0`) cannot name its own binding.
    (impl enum $name:ident as $marker:ident { $($tag:literal => $variant:ident {
        $($field:tt: $fty:ty $(as $via:ty)?),* $(,)?
    }),* $(,)? }) => {
        impl $crate::wire::Wire<$name> for $marker {
            const MIN_LEN: usize =
                1 + $crate::wire::min_of(&[$(0 $(+ $crate::wire!(@min $fty $(as $via)?))*),*]);
            fn put(v: &$name, buf: &mut Vec<u8>) {
                match v {
                    $($name::$variant { .. } => {
                        buf.push($tag);
                        $(if let $name::$variant { $field: f, .. } = v {
                            $crate::wire!(@put f, buf; $fty $(as $via)?);
                        })*
                    })*
                }
            }
            fn take(cur: &mut $crate::Cursor) -> Result<$name, $crate::NetError> {
                match <u8 as $crate::wire::Wire>::take(cur)? {
                    $($tag => Ok($name::$variant {
                        $($field: $crate::wire!(@take cur; $fty $(as $via)?)?),*
                    }),)*
                    t => Err($crate::NetError::Corrupt(format!(
                        concat!("unknown ", stringify!($name), " tag {}"),
                        t
                    ))),
                }
            }
        }
    };
    (@min $fty:ty $(as $via:ty)?) => {
        <$crate::wire!(@marker $fty $(as $via)?) as $crate::wire::Wire<$fty>>::MIN_LEN
    };
    (@put $v:expr, $buf:expr; $fty:ty $(as $via:ty)?) => {
        <$crate::wire!(@marker $fty $(as $via)?) as $crate::wire::Wire<$fty>>::put($v, $buf)
    };
    (@take $cur:expr; $fty:ty $(as $via:ty)?) => {
        <$crate::wire!(@marker $fty $(as $via)?) as $crate::wire::Wire<$fty>>::take($cur)
    };
    (@marker $fty:ty) => { $fty };
    (@marker $fty:ty as $via:ty) => { $via };
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty $(as $via:ty)?),* $(,)?
    }) => {
        $(#[$meta])* $vis struct $name { $($(#[$fmeta])* $fvis $field: $fty),* }
        $crate::wire! { impl struct $name { $($field: $fty $(as $via)?),* } }
    };
}

macro_rules! le_scalars {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(v: &Self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            fn take(cur: &mut Cursor) -> Result<Self, NetError> {
                let bytes = cur.take(Self::MIN_LEN)?;
                Ok(Self::from_le_bytes(bytes.try_into().expect("MIN_LEN bytes")))
            }
        }
    )*};
}
le_scalars!(u8, u32, u64, f64);

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        buf.push(*v as u8);
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        Ok(u8::take(cur)? != 0)
    }
}

/// As a `u64`; a value past this platform's `usize` is corrupt.
impl Wire for usize {
    const MIN_LEN: usize = 8;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        u64::put(&(*v as u64), buf);
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        let v = u64::take(cur)?;
        usize::try_from(v).map_err(|_| NetError::Corrupt(format!("{v} does not fit a usize")))
    }
}

/// A `usize` that travels as a `u32` (qubit and rank indices).
pub struct Idx32;

impl Wire<usize> for Idx32 {
    const MIN_LEN: usize = 4;
    fn put(v: &usize, buf: &mut Vec<u8>) {
        u32::put(&(*v as u32), buf);
    }
    fn take(cur: &mut Cursor) -> Result<usize, NetError> {
        Ok(u32::take(cur)? as usize)
    }
}

/// High half first.
impl Wire for u128 {
    const MIN_LEN: usize = 16;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        u64::put(&((*v >> 64) as u64), buf);
        u64::put(&(*v as u64), buf);
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        Ok(((u64::take(cur)? as u128) << 64) | u64::take(cur)? as u128)
    }
}

/// Whole nanoseconds, saturating at `u64::MAX` (584 years).
impl Wire for Duration {
    const MIN_LEN: usize = 8;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        u64::put(&u64::try_from(v.as_nanos()).unwrap_or(u64::MAX), buf);
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        Ok(Duration::from_nanos(u64::take(cur)?))
    }
}

/// A `u32` byte length, then UTF-8.
impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        u32::put(&(v.len() as u32), buf);
        buf.extend_from_slice(v.as_bytes());
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        let len = cur.take_count(1)?;
        std::str::from_utf8(cur.take(len)?)
            .map(str::to_string)
            .map_err(|e| NetError::Corrupt(format!("invalid utf-8 string: {e}")))
    }
}

/// As a string. A path that is not UTF-8 cannot travel portably and is
/// written lossily: a caller that must not lose it checks first.
impl Wire for PathBuf {
    const MIN_LEN: usize = 4;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        String::put(&v.to_string_lossy().into_owned(), buf);
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        String::take(cur).map(PathBuf::from)
    }
}

// The containers are generic over their element's marker `M`, so
// `Vec<Idx32>` lays out a `Vec<usize>` just as `Vec<u64>` lays out itself.

/// A presence byte (0 absent, anything else present), then the value.
impl<T, M: Wire<T>> Wire<Option<T>> for Option<M> {
    const MIN_LEN: usize = 1;
    fn put(v: &Option<T>, buf: &mut Vec<u8>) {
        buf.push(v.is_some() as u8);
        if let Some(v) = v {
            M::put(v, buf);
        }
    }
    fn take(cur: &mut Cursor) -> Result<Option<T>, NetError> {
        Ok(if bool::take(cur)? {
            Some(M::take(cur)?)
        } else {
            None
        })
    }
}

/// A tag byte (0 `Err`, anything else `Ok`), then the payload.
impl<T, E, M: Wire<T>, N: Wire<E>> Wire<Result<T, E>> for Result<M, N> {
    const MIN_LEN: usize = 1 + min_of(&[M::MIN_LEN, N::MIN_LEN]);
    fn put(v: &Result<T, E>, buf: &mut Vec<u8>) {
        buf.push(v.is_ok() as u8);
        match v {
            Ok(v) => M::put(v, buf),
            Err(e) => N::put(e, buf),
        }
    }
    fn take(cur: &mut Cursor) -> Result<Result<T, E>, NetError> {
        Ok(if bool::take(cur)? {
            Ok(M::take(cur)?)
        } else {
            Err(N::take(cur)?)
        })
    }
}

/// A `u32` count, then the elements. The one place a decoded count becomes
/// a capacity: at most `remaining / M::MIN_LEN` elements.
impl<T, M: Wire<T>> Wire<Vec<T>> for Vec<M> {
    const MIN_LEN: usize = 4;
    fn put(v: &Vec<T>, buf: &mut Vec<u8>) {
        u32::put(&(v.len() as u32), buf);
        for item in v {
            M::put(item, buf);
        }
    }
    fn take(cur: &mut Cursor) -> Result<Vec<T>, NetError> {
        let n = cur.take_count(M::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(M::take(cur)?);
        }
        Ok(items)
    }
}

/// First, then second.
impl<A, B, M: Wire<A>, N: Wire<B>> Wire<(A, B)> for (M, N) {
    const MIN_LEN: usize = M::MIN_LEN + N::MIN_LEN;
    fn put(v: &(A, B), buf: &mut Vec<u8>) {
        M::put(&v.0, buf);
        N::put(&v.1, buf);
    }
    fn take(cur: &mut Cursor) -> Result<(A, B), NetError> {
        Ok((M::take(cur)?, N::take(cur)?))
    }
}

macro_rules! transparent {
    ($($ptr:ident),*) => {$(
        impl<T, M: Wire<T>> Wire<$ptr<T>> for $ptr<M> {
            const MIN_LEN: usize = M::MIN_LEN;
            fn put(v: &$ptr<T>, buf: &mut Vec<u8>) {
                M::put(v, buf);
            }
            fn take(cur: &mut Cursor) -> Result<$ptr<T>, NetError> {
                M::take(cur).map($ptr::new)
            }
        }
    )*};
}
transparent!(Box, Arc);

/// Tag byte, then the magnitude (written even for `Lossless`).
impl Wire for ErrorBound {
    const MIN_LEN: usize = 9;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        buf.push(v.tag());
        f64::put(&v.magnitude(), buf);
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        let tag = u8::take(cur)?;
        ErrorBound::from_tag(tag, f64::take(cur)?)
            .ok_or_else(|| NetError::Corrupt(format!("unknown error-bound tag {tag}")))
    }
}

impl Wire for CodecId {
    const MIN_LEN: usize = 1;
    fn put(v: &Self, buf: &mut Vec<u8>) {
        buf.push(*v as u8);
    }
    fn take(cur: &mut Cursor) -> Result<Self, NetError> {
        let id = u8::take(cur)?;
        CodecId::from_u8(id).ok_or_else(|| NetError::Corrupt(format!("unknown codec id {id}")))
    }
}

/// Forward-only reader over a frame body, read through [`Wire::take`].
/// Every read checks the remaining length first, so a short or malformed
/// body decodes to a typed error rather than a slice panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Start reading `body` from the beginning.
    pub fn new(body: &'a [u8]) -> Self {
        Self { rest: body }
    }

    /// Error unless every byte of the body has been consumed — catches
    /// messages that decode "successfully" but were built for a newer,
    /// longer layout.
    pub fn finish(&self) -> Result<(), NetError> {
        if !self.rest.is_empty() {
            return Err(NetError::Corrupt(format!(
                "{} trailing bytes after message",
                self.rest.len()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.rest.len() < n {
            return Err(NetError::Corrupt(format!(
                "message truncated: wanted {n} more bytes, have {}",
                self.rest.len()
            )));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// Read a foreign self-delimiting encoding embedded in the message
    /// (e.g. a `qcs_compress` block frame): `read` gets the unconsumed
    /// tail and advances it past what it consumed.
    pub fn take_embedded<R>(&mut self, read: impl FnOnce(&mut &'a [u8]) -> R) -> R {
        read(&mut self.rest)
    }

    /// Read a `u32` and bounds-check it as a `usize` count against the
    /// bytes actually remaining (at `min_elem_size` bytes per element), so
    /// a corrupt count cannot drive a huge allocation downstream. Private:
    /// the element size always comes from a `MIN_LEN`.
    fn take_count(&mut self, min_elem_size: usize) -> Result<usize, NetError> {
        let n = u32::take(self)? as usize;
        let floor = n.saturating_mul(min_elem_size.max(1));
        if floor > self.rest.len() {
            return Err(NetError::Corrupt(format!(
                "count {n} needs at least {floor} bytes, have {}",
                self.rest.len()
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(decode::<T>(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn leaves_round_trip() {
        round_trip(0xABu8);
        round_trip(123_456u32);
        round_trip(u64::MAX - 7);
        round_trip(-0.125f64);
        round_trip(true);
        round_trip((1u128 << 70) | 99);
        round_trip("qubits".to_string());
        round_trip(PathBuf::from("/tmp/spill"));
        round_trip(Duration::from_micros(250));
        round_trip(Some(7usize));
        round_trip(None::<u64>);
        round_trip(Ok::<u8, String>(3));
        round_trip(Err::<u8, String>("no".into()));
        round_trip(Arc::new(vec![3u32, 1, 4]));
        round_trip(Box::new(ErrorBound::Absolute(1e-4)));
        round_trip(CodecId::SolutionC);
        round_trip((7usize, false));
    }

    #[test]
    fn markers_compose_through_containers() {
        let mut buf = Vec::new();
        <Option<Vec<Idx32>>>::put(&Some(vec![5usize, 9]), &mut buf);
        assert_eq!(buf.len(), 1 + 4 + 2 * 4);
        let back = <Option<Vec<Idx32>> as Wire<Option<Vec<usize>>>>::take(&mut Cursor::new(&buf));
        assert_eq!(back.unwrap(), Some(vec![5, 9]));
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let buf = encode(&9u32);
        assert!(matches!(
            decode::<u32>(&buf[..2]),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        let buf = encode(&u32::MAX); // claims ~4 billion elements
        assert!(matches!(
            Cursor::new(&buf).take_count(8),
            Err(NetError::Corrupt(_))
        ));
        assert!(matches!(
            decode::<Vec<u64>>(&buf),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_flags_trailing_bytes() {
        assert!(matches!(decode::<u8>(&[1, 2]), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn non_utf8_string_is_corrupt() {
        assert!(matches!(
            decode::<String>(&[2, 0, 0, 0, 0xFF, 0xFE]),
            Err(NetError::Corrupt(_))
        ));
    }
}
