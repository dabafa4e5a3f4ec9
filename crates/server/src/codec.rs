//! The machinery both wire formats share: every message type describes
//! its fields once ([`Field`], implemented next to the types in
//! [`wire`](crate::wire)), and each format implements only the
//! primitives the descriptions call ([`Sink`] to write, [`Source`] to
//! read).
//!
//! * **Text** ([`TextSink`], [`TextSource`]): decimal numbers (`f64` by
//!   its shortest round-trip `Display`), `{:016x}` ids, bare words and
//!   `0`/`1` flags, separated by blanks or — inside a
//!   [`joined`](Sink::joined) group — by `:`/`=`.  Tags are words; a tag
//!   ending in `:` glues the next field to it (`zipf:1.1`,
//!   `pat:<hex16>`), and an empty tag writes nothing.
//! * **Binary** ([`BinSink`], [`BinSource`]): little-endian numbers
//!   (`f64` as its bit pattern), tag bytes (the tag's index), and
//!   `u32`-counted strings and vectors.
//!
//! A [`Message`] (request or response) adds one table mapping each
//! variant to its text verb and its binary kind byte.  All of it is
//! generic over the format, so each codec is a monomorphic instance.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// How a vector states its length.
#[derive(Clone, Copy)]
pub(crate) enum Count {
    /// Text writes the bare count before the elements.
    Bare,
    /// Text writes `<label> <count>` before the elements.
    Section(&'static str),
    /// Text writes no count: the elements run to the end of the line.
    ToEnd,
}

/// A fixed-width number: decimal in text, little-endian in binary.
pub(crate) trait Num: Copy + Display + FromStr {
    fn put_le(self, out: &mut Vec<u8>);
    fn take_le(b: &mut &[u8]) -> Option<Self>;
}

macro_rules! num {
    ($($ty:ty),+) => {$(
        impl Num for $ty {
            fn put_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take_le(b: &mut &[u8]) -> Option<Self> {
                let (head, tail) = b.split_first_chunk()?;
                *b = tail;
                Some(<$ty>::from_le_bytes(*head))
            }
        }
    )+};
}

num!(u64, u32, u8, i64, f64);

/// Writes primitives in one format.
pub(crate) trait Sink: Sized {
    /// Whether this is the text format (for the one walk that differs).
    const TEXT: bool;
    fn num<N: Num>(&mut self, v: &N);
    /// An id: 16 hex digits / `u64` LE.
    fn hex(&mut self, v: &u64);
    /// `0`/`1` / one byte.
    fn bool(&mut self, v: &bool);
    /// A string without blanks: the word / `u32` length + bytes.
    fn word(&mut self, s: &str);
    /// A string that runs to the end of the line: one space and the
    /// string / `u32` length + bytes.
    fn rest(&mut self, s: &str);
    /// Variant `i` of a sum type whose text tags are `names`.
    fn tag(&mut self, names: &[&str], i: u8);
    /// A vector's length.
    fn count(&mut self, count: Count, n: usize);
    /// Fields joined by `sep` into one text token (binary: no effect).
    fn joined(&mut self, sep: u8, f: impl FnOnce(&mut Self));
    /// Room for at least `bytes` more binary bytes.
    fn reserve(&mut self, bytes: usize);
    /// A value with its own description.
    fn field<T: Field>(&mut self, v: &T) {
        v.put(self);
    }
}

/// Reads primitives in one format; every method fails, never panics, on
/// malformed or truncated input.
pub(crate) trait Source: Sized {
    /// Whether this is the text format.
    const TEXT: bool;
    fn num<N: Num>(&mut self) -> Result<N, String>;
    fn hex(&mut self) -> Result<u64, String>;
    fn bool(&mut self) -> Result<bool, String>;
    fn word(&mut self) -> Result<String, String>;
    fn rest(&mut self) -> Result<String, String>;
    /// The variant index; `what` names the sum type in errors.
    fn tag(&mut self, what: &str, names: &[&str]) -> Result<u8, String>;
    /// A vector's length, refused when the input left cannot hold that
    /// many elements of at least `min_bin` bytes (text: one character)
    /// — a lying count cannot drive a large allocation.
    fn count(&mut self, count: Count, min_bin: usize) -> Result<usize, String>;
    fn joined<T>(
        &mut self,
        sep: u8,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String>;
    /// Whether nothing but blanks is left.
    fn at_end(&self) -> bool;
    fn field<T: Field>(&mut self) -> Result<T, String> {
        T::get(self)
    }
}

/// A value with one description of its wire fields.
pub(crate) trait Field: Sized {
    /// Fewest binary bytes any encoding of the type takes.
    const MIN_BIN: usize = 1;
    fn put<S: Sink>(&self, s: &mut S);
    fn get<R: Source>(r: &mut R) -> Result<Self, String>;
}

/// Implements [`Field`] for a struct from one list of its fields, each
/// with the primitive (or `field`) that carries it; in text the fields
/// are joined by `sep`.
macro_rules! record {
    ($ty:ty, min $min:expr, $sep:expr, $($f:ident: $how:ident),+ $(,)?) => {
        impl $crate::codec::Field for $ty {
            const MIN_BIN: usize = $min;
            fn put<S: $crate::codec::Sink>(&self, s: &mut S) {
                s.joined($sep, |s| {
                    $(s.$how(&self.$f);)+
                });
            }
            #[inline]
            fn get<R: $crate::codec::Source>(r: &mut R) -> Result<Self, String> {
                r.joined($sep, |r| Ok(Self { $($f: r.$how()?,)+ }))
            }
        }
    };
}
pub(crate) use record;

/// Implements [`Field`] for an enum from one list of its variants, each
/// with the primitive carrying its one value (if it has one) and its
/// text tag; the binary tag is the variant's place in the list.
macro_rules! variants {
    ($ty:ident, $what:literal, $($v:ident $(($how:ident))? = $tag:literal),+ $(,)?) => {
        impl $crate::codec::Field for $ty {
            #[allow(unused_assignments)]
            fn put<S: $crate::codec::Sink>(&self, s: &mut S) {
                const TAGS: &[&str] = &[$($tag),+];
                let mut i = 0;
                $(
                    if let $ty::$v $(($crate::codec::variants!(@bind $how x)))? = self {
                        s.tag(TAGS, i);
                        $(s.$how(x);)?
                        return;
                    }
                    i += 1;
                )+
            }
            #[inline]
            #[allow(unused_assignments)]
            fn get<R: $crate::codec::Source>(r: &mut R) -> Result<Self, String> {
                const TAGS: &[&str] = &[$($tag),+];
                let (t, mut i) = (r.tag($what, TAGS)?, 0);
                $(
                    if t == i {
                        return Ok($ty::$v $((r.$how()?))?);
                    }
                    i += 1;
                )+
                unreachable!("tag {t} was checked against the list")
            }
        }
    };
    (@bind $how:ident $x:ident) => {
        $x
    };
}
pub(crate) use variants;

impl<N: Num> Field for N {
    const MIN_BIN: usize = std::mem::size_of::<N>();
    fn put<S: Sink>(&self, s: &mut S) {
        s.num(self);
    }
    #[inline]
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        r.num()
    }
}

/// Integers carried as a wider or narrower [`Num`].
macro_rules! carried {
    ($($ty:ty as $wire:ty),+) => {$(
        impl Field for $ty {
            const MIN_BIN: usize = std::mem::size_of::<$wire>();
            fn put<S: Sink>(&self, s: &mut S) {
                s.num(&(*self as $wire));
            }
            #[inline]
            fn get<R: Source>(r: &mut R) -> Result<Self, String> {
                let v: $wire = r.num()?;
                <$ty>::try_from(v).map_err(|_| format!("{v} is out of range"))
            }
        }
    )+};
}

carried!(usize as u64, u16 as u32);

impl Field for String {
    const MIN_BIN: usize = 4;
    fn put<S: Sink>(&self, s: &mut S) {
        s.word(self);
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        r.word()
    }
}

/// A named value: `name=value` in text.
impl<T: Field> Field for (String, T) {
    const MIN_BIN: usize = 4 + T::MIN_BIN;
    fn put<S: Sink>(&self, s: &mut S) {
        s.joined(b'=', |s| {
            s.word(&self.0);
            s.field(&self.1);
        });
    }
    fn get<R: Source>(r: &mut R) -> Result<Self, String> {
        r.joined(b'=', |r| Ok((r.word()?, r.field()?)))
    }
}

pub(crate) fn put_vec<S: Sink, T: Field>(s: &mut S, count: Count, v: &[T]) {
    s.count(count, v.len());
    s.reserve(v.len().saturating_mul(T::MIN_BIN));
    for x in v {
        x.put(s);
    }
}

pub(crate) fn get_vec<R: Source, T: Field>(r: &mut R, count: Count) -> Result<Vec<T>, String> {
    let n = r.count(count, T::MIN_BIN)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::get(r)?);
    }
    Ok(v)
}

/// A request or response: one table row per variant, then its fields.
pub(crate) trait Message: Sized {
    /// `request` or `response`, for errors.
    const NAME: &'static str;
    /// Per variant, in declaration order: binary kind byte, text verb,
    /// and the verb's second word (`""` for a one-word verb).
    const KINDS: &'static [(u8, &'static str, &'static str)];
    /// This value's row in [`KINDS`](Message::KINDS).
    fn row(&self) -> usize;
    fn put_fields<S: Sink>(&self, s: &mut S);
    fn get_fields<R: Source>(row: usize, r: &mut R) -> Result<Self, String>;
}

pub(crate) fn to_text<M: Message>(m: &M) -> String {
    let mut s = TextSink {
        out: String::with_capacity(64),
        sep: GLUED,
        group: b' ',
    };
    let (_, verb, second) = M::KINDS[m.row()];
    s.word(verb);
    if !second.is_empty() {
        s.word(second);
    }
    m.put_fields(&mut s);
    s.out
}

pub(crate) fn from_text<M: Message>(line: &str) -> Result<M, String> {
    let mut r = TextSource {
        rest: trim_blanks(line),
        sep: GLUED,
        group: b' ',
    };
    let first = r.token()?;
    let mut row = None;
    for (i, &(_, verb, second)) in M::KINDS.iter().enumerate() {
        if verb == first {
            if second.is_empty() {
                row = row.or(Some(i));
            } else if r.peek() == Some(second) {
                r.token()?;
                row = Some(i);
                break;
            }
        }
    }
    let row = row.ok_or_else(|| format!("unknown or malformed {} {first}", M::NAME))?;
    let m = M::get_fields(row, &mut r)?;
    if !r.at_end() {
        return Err(format!("trailing fields {:?}", r.rest.trim()));
    }
    Ok(m)
}

pub(crate) fn to_frame<M: Message>(m: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    append_frame(m, &mut out);
    out
}

/// Append one frame to `out`, after the bytes already there.
fn append_frame<M: Message>(m: &M, out: &mut Vec<u8>) {
    let mut s = BinSink::append(std::mem::take(out), M::KINDS[m.row()].0);
    m.put_fields(&mut s);
    *out = s.finish();
}

#[inline]
pub(crate) fn from_frame<M: Message>(kind: u8, body: &[u8]) -> Result<M, String> {
    let row = M::KINDS
        .iter()
        .position(|&(k, _, _)| k == kind)
        .ok_or_else(|| format!("unknown {} kind 0x{kind:02x}", M::NAME))?;
    let mut r = BinSource { b: body };
    let m = M::get_fields(row, &mut r)?;
    if !r.at_end() {
        return Err(format!("frame has {} trailing bytes", r.b.len()));
    }
    Ok(m)
}

/// The protocol a connection speaks, picked once per message.
#[derive(Clone, Copy)]
pub(crate) enum Proto {
    Text,
    Bin,
}

impl Proto {
    /// One message, ready for the socket (a text line ends in `\n`).
    pub(crate) fn encode<M: Message>(self, m: &M) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(m, &mut out);
        out
    }

    /// One message appended to `out`, after the bytes of earlier
    /// messages bound for the same socket.  A frame is built in place,
    /// so a long payload is not copied again.
    pub(crate) fn encode_into<M: Message>(self, m: &M, out: &mut Vec<u8>) {
        match self {
            Proto::Text => {
                out.extend_from_slice(to_text(m).as_bytes());
                out.push(b'\n');
            }
            Proto::Bin => append_frame(m, out),
        }
    }

    /// The metrics reply, which neither enum carries.
    pub(crate) fn metrics(self, exposition: &[u8]) -> Vec<u8> {
        match self {
            Proto::Text => crate::wire::metrics_frame(exposition),
            Proto::Bin => crate::wire2::encode_metrics_frame(exposition),
        }
    }
}

// ---------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------

/// A separator: `b' '` (a blank; when reading, one or more), `b':'`,
/// `b'='`, or nothing between glued fields.
pub(crate) const GLUED: u8 = 0;

pub(crate) struct TextSink {
    out: String,
    /// Written before the next field.
    sep: u8,
    /// Separator between the fields of the current group.
    group: u8,
}

impl TextSink {
    fn field(&mut self) -> &mut String {
        if self.sep != GLUED {
            self.out.push(char::from(self.sep));
        }
        self.sep = self.group;
        &mut self.out
    }
}

impl Sink for TextSink {
    const TEXT: bool = true;
    fn num<N: Num>(&mut self, v: &N) {
        let _ = write!(self.field(), "{v}");
    }
    fn hex(&mut self, v: &u64) {
        let _ = write!(self.field(), "{v:016x}");
    }
    fn bool(&mut self, v: &bool) {
        self.field().push(if *v { '1' } else { '0' });
    }
    fn word(&mut self, s: &str) {
        self.field().push_str(s);
    }
    fn rest(&mut self, s: &str) {
        self.out.push(' ');
        self.out.push_str(s);
    }
    fn tag(&mut self, names: &[&str], i: u8) {
        let name = names[usize::from(i)];
        if !name.is_empty() {
            self.word(name);
            if name.ends_with(':') {
                self.sep = GLUED;
            }
        }
    }
    fn count(&mut self, count: Count, n: usize) {
        if let Count::Section(label) = count {
            self.word(label);
        }
        if !matches!(count, Count::ToEnd) {
            self.num(&(n as u64));
        }
    }
    fn joined(&mut self, sep: u8, f: impl FnOnce(&mut Self)) {
        let outer = std::mem::replace(&mut self.group, sep);
        f(self);
        self.group = outer;
        self.sep = outer;
    }
    fn reserve(&mut self, _bytes: usize) {}
}

/// A streaming tokenizer over one line: no per-line token vector.
pub(crate) struct TextSource<'a> {
    rest: &'a str,
    /// Expected before the next field.
    sep: u8,
    group: u8,
}

/// Every separator and blank is ASCII, so scanning bytes always splits
/// on a character boundary.
#[inline]
fn trim_blanks(s: &str) -> &str {
    let n = s.bytes().take_while(u8::is_ascii_whitespace).count();
    &s[n..]
}

impl<'a> TextSource<'a> {
    /// The input after the pending separator.
    #[inline]
    fn after_sep(&self) -> Result<&'a str, String> {
        match self.sep {
            GLUED => Ok(self.rest),
            b' ' => {
                let s = trim_blanks(self.rest);
                if s.len() == self.rest.len() && !s.is_empty() {
                    return Err(format!("expected a blank before {s:?}"));
                }
                Ok(s)
            }
            sep if self.rest.as_bytes().first() == Some(&sep) => Ok(&self.rest[1..]),
            sep => Err(format!("expected {:?} at {:?}", sep as char, self.rest)),
        }
    }

    /// Split off the next token: it ends at a blank or at the current
    /// group's separator.
    #[inline]
    fn split_token(&self, s: &'a str) -> (&'a str, &'a str) {
        let end = s
            .bytes()
            .position(|b| b.is_ascii_whitespace() || b == self.group)
            .unwrap_or(s.len());
        s.split_at(end)
    }

    #[inline]
    fn token(&mut self) -> Result<&'a str, String> {
        let (token, rest) = self.split_token(self.after_sep()?);
        if token.is_empty() {
            return Err(format!("missing field at {:?}", self.rest));
        }
        self.rest = rest;
        self.sep = self.group;
        Ok(token)
    }

    fn peek(&self) -> Option<&'a str> {
        self.after_sep().ok().map(|s| self.split_token(s).0)
    }
}

impl Source for TextSource<'_> {
    const TEXT: bool = true;
    fn num<N: Num>(&mut self) -> Result<N, String> {
        let token = self.token()?;
        token.parse().map_err(|_| format!("bad number {token}"))
    }
    fn hex(&mut self) -> Result<u64, String> {
        let token = self.token()?;
        u64::from_str_radix(token, 16).map_err(|_| format!("bad hex id {token}"))
    }
    fn bool(&mut self) -> Result<bool, String> {
        let s = self.after_sep()?;
        let v = match s.as_bytes().first() {
            Some(b'0') => false,
            Some(b'1') => true,
            _ => return Err(format!("bad flag at {s:?}")),
        };
        self.rest = &s[1..];
        self.sep = self.group;
        Ok(v)
    }
    fn word(&mut self) -> Result<String, String> {
        self.token().map(str::to_string)
    }
    fn rest(&mut self) -> Result<String, String> {
        let s = match self.rest.strip_prefix(' ') {
            Some(s) => s,
            None if self.rest.is_empty() => "",
            None => return Err(format!("expected a space before {:?}", self.rest)),
        };
        self.rest = "";
        Ok(s.to_string())
    }
    #[inline]
    fn tag(&mut self, what: &str, names: &[&str]) -> Result<u8, String> {
        if let Ok(s) = self.after_sep() {
            let (token, after) = self.split_token(s);
            for (i, name) in names.iter().enumerate() {
                if name.ends_with(':') && s.starts_with(name) {
                    (self.rest, self.sep) = (&s[name.len()..], GLUED);
                    return Ok(i as u8);
                }
                if !name.is_empty() && token == *name {
                    (self.rest, self.sep) = (after, self.group);
                    return Ok(i as u8);
                }
            }
        }
        // An empty name is the variant without a text tag.
        match names.iter().position(|n| n.is_empty()) {
            Some(i) => Ok(i as u8),
            None => Err(format!("unknown {what} {}", self.peek().unwrap_or(""))),
        }
    }
    fn count(&mut self, count: Count, _min_bin: usize) -> Result<usize, String> {
        match count {
            Count::ToEnd => return Ok(self.rest.split_ascii_whitespace().count()),
            Count::Section(label) => {
                let token = self.token()?;
                if token != label {
                    return Err(format!("expected a {label} section, got {token}"));
                }
            }
            Count::Bare => {}
        }
        let n: u64 = self.num()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.rest.len() => Ok(n),
            _ => Err(format!("{n} entries declared, the line ends early")),
        }
    }
    fn joined<T>(
        &mut self,
        sep: u8,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let outer = std::mem::replace(&mut self.group, sep);
        let v = f(self);
        self.group = outer;
        self.sep = outer;
        v
    }
    fn at_end(&self) -> bool {
        trim_blanks(self.rest).is_empty()
    }
}

// ---------------------------------------------------------------------
// Binary
// ---------------------------------------------------------------------

/// Builds one frame in one buffer: a length placeholder, the kind byte
/// and the body, with the length patched in at the end.  The frame may
/// follow other bytes in the buffer (`start` is where it begins).
pub(crate) struct BinSink {
    out: Vec<u8>,
    start: usize,
}

const HEADER: usize = crate::wire2::FRAME_HEADER_BYTES;

impl BinSink {
    pub(crate) fn new(kind: u8) -> Self {
        Self::append(Vec::with_capacity(64), kind)
    }

    /// A frame that starts after the bytes already in `out`.
    fn append(mut out: Vec<u8>, kind: u8) -> Self {
        let start = out.len();
        out.extend_from_slice(&[0; HEADER]);
        out.push(kind);
        BinSink { out, start }
    }

    pub(crate) fn finish(mut self) -> Vec<u8> {
        let len = (self.out.len() - self.start - HEADER) as u32;
        self.out[self.start..self.start + HEADER].copy_from_slice(&len.to_le_bytes());
        self.out
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }
}

impl Sink for BinSink {
    const TEXT: bool = false;
    fn num<N: Num>(&mut self, v: &N) {
        v.put_le(&mut self.out);
    }
    fn hex(&mut self, v: &u64) {
        self.num(v);
    }
    fn bool(&mut self, v: &bool) {
        self.out.push(u8::from(*v));
    }
    fn word(&mut self, s: &str) {
        self.num(&(s.len() as u32));
        self.bytes(s.as_bytes());
    }
    fn rest(&mut self, s: &str) {
        self.word(s);
    }
    fn tag(&mut self, _names: &[&str], i: u8) {
        self.out.push(i);
    }
    fn count(&mut self, _count: Count, n: usize) {
        self.num(&(n as u32));
    }
    fn joined(&mut self, _sep: u8, f: impl FnOnce(&mut Self)) {
        f(self);
    }
    fn reserve(&mut self, bytes: usize) {
        self.out.reserve(bytes);
    }
}

/// Bounds-checked little-endian reader over one frame body.
pub(crate) struct BinSource<'a> {
    b: &'a [u8],
}

impl Source for BinSource<'_> {
    const TEXT: bool = false;
    fn num<N: Num>(&mut self) -> Result<N, String> {
        N::take_le(&mut self.b).ok_or_else(|| {
            let need = std::mem::size_of::<N>();
            format!("frame truncated: need {need} bytes, have {}", self.b.len())
        })
    }
    fn hex(&mut self) -> Result<u64, String> {
        self.num()
    }
    fn bool(&mut self) -> Result<bool, String> {
        match self.num::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("bad bool byte {t}")),
        }
    }
    fn word(&mut self) -> Result<String, String> {
        let n = self.num::<u32>()? as usize;
        if n > self.b.len() {
            return Err(format!(
                "frame truncated: need {n} bytes, have {}",
                self.b.len()
            ));
        }
        let (s, tail) = self.b.split_at(n);
        self.b = tail;
        String::from_utf8(s.to_vec()).map_err(|_| "invalid utf-8 string".into())
    }
    fn rest(&mut self) -> Result<String, String> {
        self.word()
    }
    fn tag(&mut self, what: &str, names: &[&str]) -> Result<u8, String> {
        let t: u8 = self.num()?;
        if usize::from(t) < names.len() {
            Ok(t)
        } else {
            Err(format!("unknown {what} tag {t}"))
        }
    }
    fn count(&mut self, _count: Count, min_bin: usize) -> Result<usize, String> {
        let n = self.num::<u32>()? as usize;
        if n.saturating_mul(min_bin) > self.b.len() {
            return Err(format!(
                "frame declares {n} elements but only {} bytes remain",
                self.b.len()
            ));
        }
        Ok(n)
    }
    fn joined<T>(
        &mut self,
        _sep: u8,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        f(self)
    }
    fn at_end(&self) -> bool {
        self.b.is_empty()
    }
}
