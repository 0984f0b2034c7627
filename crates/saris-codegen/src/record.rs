//! The document table under [`crate::wire`] and
//! [`CalibrationStore`](crate::CalibrationStore)'s JSON: the [`Wire`]
//! trait, its implementations for the scalars and containers every
//! document is made of, and the macros that *declare* a document type
//! — each field named once, encoder and decoder generated from the one
//! list, so their order and keys cannot drift apart.
//!
//! ```text
//! record!(Type { field, field["key"], field via Codec, ... } skip { field: value });
//! tags!(Enum { Variant => "tag", ... });
//! counters!(Type [a, b] + stalls: Stalls [c, d]);
//! fields!(r, what, { "key" => local, "key" => local: Type, ... });
//! ```
//!
//! * `record!` — a struct as `{"key": value, ...}`. Keys are written in
//!   the listed order and named after their field unless `["key"]` says
//!   otherwise; `via Codec` moves the value through the tuple newtype
//!   `Codec` (`Codec(value).enc(..)` / `Codec::dec(..)?.0`) where its own
//!   type's format is not the document's (such a key is required); `skip`
//!   fields never cross the wire and decode as the value given.
//! * `tags!` — a field-less enum as one of its quoted tags.
//! * `counters!` — an all-`u64` struct, with at most one nested struct
//!   of the same kind, as one flat `[a, b, c, d]`.
//! * `fields!` — the decode loop itself, for what is not filled into a
//!   struct but replayed through a builder: reads the object `r` is at
//!   into `let` bindings.
//!
//! Every decoder reads keys in any order, skips (and validates) unknown
//! ones, keeps the last of a repeated key, and requires every key whose
//! type has no [`Wire::absent`] value — that is, all but `Option`s. All
//! of it is static dispatch over a [`Reader`]: no tree, no `dyn`, and
//! no allocation beyond the `Vec`s and `String`s being decoded, which
//! grow as their elements arrive.

use std::borrow::Cow;

use saris_core::Extent;

use crate::json::{self, JsonError, Kind, Reader};

/// A value with one JSON form.
pub(crate) trait Wire: Sized {
    /// Appends the value to `out`.
    fn enc(&self, out: &mut String);

    /// Reads the value `r` is at; `what` names it in errors.
    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, JsonError>;

    /// What a document without this value's key decodes as; `None`
    /// makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

pub(crate) fn missing(what: &str, key: &str) -> JsonError {
    json::error(&format!("{what}: missing field `{key}`"))
}

// ---------------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------------

/// Appends `v` in decimal. Counters are most of an outcome document,
/// and `write!` pays `fmt`'s dispatch and padding logic for each.
fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

impl Wire for u64 {
    fn enc(&self, out: &mut String) {
        push_uint(out, *self);
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<u64, JsonError> {
        r.u64(what)
    }
}

/// The narrower unsigned integers: a value that does not fit the field
/// it is for is an error.
macro_rules! narrow_uints {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn enc(&self, out: &mut String) {
                push_uint(out, *self as u64);
            }

            fn dec(r: &mut Reader<'_>, what: &str) -> Result<$ty, JsonError> {
                <$ty>::try_from(r.u64(what)?)
                    .map_err(|_| json::error(&format!("{what} is out of range")))
            }
        }
    )*};
}
narrow_uints!(usize, u32);

impl Wire for i64 {
    fn enc(&self, out: &mut String) {
        if *self < 0 {
            out.push('-');
        }
        push_uint(out, self.unsigned_abs());
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<i64, JsonError> {
        r.i64(what)
    }
}

impl Wire for bool {
    fn enc(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<bool, JsonError> {
        r.bool(what)
    }
}

/// Bit-exact: finite values in Rust's shortest round-trip form, re-read
/// by the correctly rounded `str::parse`; non-finite ones (a NaN keeps
/// its payload) as the string `"0x<16 hex digits>"` of [`f64::to_bits`].
/// Grids do not come through here: they are packed (see `wire`).
impl Wire for f64 {
    fn enc(&self, out: &mut String) {
        use std::fmt::Write as _;
        let written = if self.is_finite() {
            write!(out, "{self:?}")
        } else {
            write!(out, "\"0x{:016x}\"", self.to_bits())
        };
        written.expect("writing to a String cannot fail");
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<f64, JsonError> {
        match r.peek()? {
            Kind::Number => r.f64(what),
            Kind::String => {
                let s = r.str(what)?;
                let hex = s.strip_prefix("0x").ok_or_else(|| {
                    json::error(&format!("{what}: expected a 0x-prefixed bit string"))
                })?;
                let bits = u64::from_str_radix(hex, 16)
                    .map_err(|_| json::error(&format!("{what}: bad f64 bit pattern `{s}`")))?;
                Ok(f64::from_bits(bits))
            }
            _ => Err(json::error(&format!("{what}: expected a number"))),
        }
    }
}

/// A `u64` as a decimal *string*: fingerprints and seeds use all 64
/// bits, which a reader that takes every number for a double loses.
pub(crate) struct DecStr(pub u64);

impl Wire for DecStr {
    fn enc(&self, out: &mut String) {
        out.push('"');
        push_uint(out, self.0);
        out.push('"');
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<DecStr, JsonError> {
        let digits = r.str(what)?;
        let value = digits.parse().map(DecStr);
        value.map_err(|_| json::error(&format!("{what}: expected a decimal u64 string")))
    }
}

/// Encodes borrowed text; decodes to an owned copy, so nothing decoded
/// borrows from the frame.
impl Wire for Cow<'_, str> {
    fn enc(&self, out: &mut String) {
        out.push('"');
        json::escape_into(out, self);
        out.push('"');
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, JsonError> {
        Ok(Cow::Owned(r.str(what)?.into_owned()))
    }
}

// ---------------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------------

/// `null` for `None`; an absent key reads as `None` too.
impl<T: Wire> Wire for Option<T> {
    fn enc(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(value) => value.enc(out),
        }
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, JsonError> {
        if r.null()? {
            Ok(None)
        } else {
            T::dec(r, what).map(Some)
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// `[a, b, ...]`: each of `items` through `enc`.
pub(crate) fn enc_seq<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut enc: impl FnMut(T, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        enc(item, out);
    }
    out.push(']');
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self, out: &mut String) {
        enc_seq(out, self, T::enc);
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, JsonError> {
        let mut items = Vec::new();
        r.begin_array(what)?;
        while r.next_element()? {
            items.push(T::dec(r, what)?);
        }
        Ok(items)
    }
}

/// An array of exactly `N` elements.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn enc(&self, out: &mut String) {
        enc_seq(out, self, T::enc);
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Self, JsonError> {
        let mut items = [T::default(); N];
        let mut n = 0;
        r.begin_array(what)?;
        while r.next_element()? {
            let item = T::dec(r, what)?;
            if let Some(slot) = items.get_mut(n) {
                *slot = item;
            }
            n += 1;
        }
        if n != N {
            return Err(json::error(&format!(
                "{what}: expected {N} elements, got {n}"
            )));
        }
        Ok(items)
    }
}

/// `[nx, ny, nz]` of an extent a locally built spec could carry: every
/// component positive (`Extent::new_2d` / `new_3d` assert it) and a
/// point count that fits `usize` (`Extent::len` multiplies unchecked).
impl Wire for Extent {
    fn enc(&self, out: &mut String) {
        [self.nx, self.ny, self.nz].enc(out);
    }

    fn dec(r: &mut Reader<'_>, what: &str) -> Result<Extent, JsonError> {
        let [nx, ny, nz] = <[usize; 3]>::dec(r, what)?;
        let points = nx.checked_mul(ny).and_then(|xy| xy.checked_mul(nz));
        if matches!(points, None | Some(0)) {
            return Err(json::error(&format!(
                "{what}: [{nx}, {ny}, {nz}] is not a positive extent"
            )));
        }
        Ok(if nz == 1 {
            Extent::new_2d(nx, ny)
        } else {
            Extent::new_3d(nx, ny, nz)
        })
    }
}

// ---------------------------------------------------------------------------
// The tables
// ---------------------------------------------------------------------------

/// Reads the object `$r` is at into one `let` per entry (see the module
/// docs). An entry's type is inferred from how the binding is used, or
/// stated; an `Option` type makes its key optional.
macro_rules! fields {
    ($r:ident, $what:expr, { $($key:expr => $var:ident $(via $codec:ident)? $(: $ty:ty)?),* $(,)? }) => {
        $(let mut $var $(: Option<$ty>)? = None;)*
        $r.begin_object($what)?;
        while let Some(key) = $r.next_key()? {
            $(if key == $key {
                $var = Some($crate::record::fields!(@dec $r, $key $(, $codec)?));
            } else)* {
                $r.skip_value()?;
            }
        }
        $(let $var = match $var {
            Some(value) => value,
            None => $crate::record::fields!(@absent $($codec)?)
                .ok_or_else(|| $crate::record::missing($what, $key))?,
        };)*
    };
    (@dec $r:ident, $key:expr) => { $crate::record::Wire::dec($r, $key)? };
    (@dec $r:ident, $key:expr, $codec:ident) => { <$codec as $crate::record::Wire>::dec($r, $key)?.0 };
    (@absent) => { $crate::record::Wire::absent() };
    (@absent $codec:ident) => { None };
}

/// Declares a struct's document (see the module docs).
macro_rules! record {
    ($ty:ty { $($f:ident $([$key:literal])? $(via $codec:ident)?),* $(,)? }
     $(skip { $($skipped:ident: $value:expr),* $(,)? })?) => {
        impl $crate::record::Wire for $ty {
            #[allow(unused_assignments)]
            fn enc(&self, out: &mut String) {
                let mut first = true;
                $(
                    out.push_str(if first {
                        concat!("{\"", $crate::record::record!(@key $f $($key)?), "\": ")
                    } else {
                        concat!(", \"", $crate::record::record!(@key $f $($key)?), "\": ")
                    });
                    first = false;
                    $crate::record::record!(@enc out, self.$f $(, $codec)?);
                )*
                out.push('}');
            }

            fn dec(
                r: &mut $crate::json::Reader<'_>,
                what: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                $crate::record::fields!(r, what, {
                    $($crate::record::record!(@key $f $($key)?) => $f $(via $codec)?),*
                });
                Ok(Self { $($f,)* $($($skipped: $value,)*)? })
            }
        }
    };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
    (@enc $out:ident, $value:expr) => { $crate::record::Wire::enc(&$value, $out) };
    (@enc $out:ident, $value:expr, $codec:ident) => { $crate::record::Wire::enc(&$codec($value), $out) };
}

/// Declares a field-less enum's document: one quoted tag per variant.
macro_rules! tags {
    ($ty:ty { $($variant:ident => $tag:literal),* $(,)? }) => {
        impl $crate::record::Wire for $ty {
            fn enc(&self, out: &mut String) {
                out.push_str(match self {
                    $(Self::$variant => concat!("\"", $tag, "\""),)*
                });
            }

            fn dec(
                r: &mut $crate::json::Reader<'_>,
                what: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                match &*r.str(what)? {
                    $($tag => Ok(Self::$variant),)*
                    other => Err($crate::json::error(&format!("unknown {what} `{other}`"))),
                }
            }
        }
    };
}

/// Declares an all-`u64` struct's document: its counters, then those of
/// its one nested struct, as one flat array in the listed order.
macro_rules! counters {
    ($ty:ty [$($f:ident),*] $(+ $sub:ident: $subty:ident [$($g:ident),*])?) => {
        impl $crate::record::Wire for $ty {
            fn enc(&self, out: &mut String) {
                [$(self.$f,)* $($(self.$sub.$g,)*)?].enc(out);
            }

            fn dec(
                r: &mut $crate::json::Reader<'_>,
                what: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                let [$($f,)* $($($g,)*)?] = $crate::record::Wire::dec(r, what)?;
                Ok(Self { $($f,)* $($sub: $subty { $($g),* },)? })
            }
        }
    };
}

pub(crate) use {counters, fields, record, tags};
