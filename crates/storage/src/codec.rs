//! The one codec of the log and the manifest: tokens (tags, decimal
//! numbers) and strings written `len:bytes`, so a string may hold any
//! character — spaces, newlines, `:`, U+001F — unescaped.

use mbxq_xml::QName;
use std::io::{self, Write};

/// Writes `v` in decimal, followed by `sep`.
pub fn put_num<W: Write>(out: &mut W, v: u64, sep: u8) -> io::Result<()> {
    let mut digits = [0u8; 21];
    let mut i = digits.len() - 1;
    digits[i] = sep;
    let mut v = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_all(&digits[i..])
}

/// Writes `s` as `len:bytes`, followed by `sep` (which may be empty).
pub fn put_str<W: Write>(out: &mut W, s: &str, sep: &[u8]) -> io::Result<()> {
    put_num(out, s.len() as u64, b':')?;
    out.write_all(s.as_bytes())?;
    out.write_all(sep)
}

/// [`put_str`] of `prefix:local` (the empty string for `None`), written
/// from its parts.
pub fn put_name<W: Write>(out: &mut W, name: Option<&QName>, sep: &[u8]) -> io::Result<()> {
    match name {
        Some(n) if !n.prefix.is_empty() => {
            put_num(out, (n.prefix.len() + 1 + n.local.len()) as u64, b':')?;
            out.write_all(n.prefix.as_bytes())?;
            out.write_all(b":")?;
            out.write_all(n.local.as_bytes())?;
            out.write_all(sep)
        }
        _ => put_str(out, name.map_or("", |n| &n.local), sep),
    }
}

/// Whether `b` separates two fields: ASCII whitespace, or U+001F (the
/// byte a WAL record writes between two ops).
fn is_sep(b: u8) -> bool {
    b.is_ascii_whitespace() || b == 0x1f
}

/// Reads the fields the writers wrote, stepping over separators before
/// each. An error is the name of the field that did not read.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor { rest: text }
    }

    /// The text after the separators at the cursor (they are ASCII, so
    /// the cut is a character boundary).
    fn skipped(&self) -> &'a str {
        &self.rest[self.rest.bytes().take_while(|&b| is_sep(b)).count()..]
    }

    /// Steps over separators; whether nothing is left.
    pub fn at_end(&mut self) -> bool {
        self.rest = self.skipped();
        self.rest.is_empty()
    }

    /// The next token.
    pub fn token(&mut self, field: &'static str) -> Result<&'a str, &'static str> {
        let r = self.skipped();
        let (tok, rest) = r.split_at(r.bytes().position(is_sep).unwrap_or(r.len()));
        self.rest = rest;
        if tok.is_empty() {
            return Err(field);
        }
        Ok(tok)
    }

    /// The next token as a decimal number.
    pub fn num(&mut self, field: &'static str) -> Result<u64, &'static str> {
        let tok = self.token(field)?;
        if !tok.bytes().all(|b| b.is_ascii_digit()) {
            return Err(field);
        }
        tok.parse().map_err(|_| field)
    }

    /// The next `len:bytes` string.
    pub fn take_str(&mut self, field: &'static str) -> Result<&'a str, &'static str> {
        let r = self.skipped();
        let digits = r.bytes().take_while(u8::is_ascii_digit).count();
        let (len, body) = r.split_at(digits);
        let len: usize = len.parse().map_err(|_| field)?;
        let body = body.strip_prefix(':').ok_or(field)?;
        let s = body.get(..len).ok_or(field)?;
        self.rest = &body[len..];
        Ok(s)
    }

    /// The next string as a qualified name.
    pub fn name(&mut self, field: &'static str) -> Result<QName, &'static str> {
        QName::parse(self.take_str(field)?).ok_or(field)
    }

    /// Steps over the ASCII `byte`, which must come next (no separator
    /// is stepped over first).
    pub fn byte(&mut self, byte: u8, field: &'static str) -> Result<(), &'static str> {
        self.rest = self.rest.strip_prefix(char::from(byte)).ok_or(field)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_cursor_round_trip_awkward_strings() {
        let strings = [
            "",
            "a b",
            "x:y",
            "line\none",
            "sep\u{1f}arated",
            "caf\u{e9}",
        ];
        let mut out = Vec::new();
        put_num(&mut out, 1234, b' ').unwrap();
        for s in strings {
            put_str(&mut out, s, b" ").unwrap();
        }
        put_name(&mut out, Some(&QName::prefixed("p", "l")), b"").unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut cur = Cursor::new(&text);
        assert_eq!(cur.num("number"), Ok(1234));
        for s in strings {
            assert_eq!(cur.take_str("string"), Ok(s));
        }
        assert_eq!(cur.name("name"), Ok(QName::prefixed("p", "l")));
        assert!(cur.at_end());
    }

    #[test]
    fn errors_name_the_field() {
        let err = |text: &str, read: fn(&mut Cursor<'_>) -> Result<(), &'static str>| {
            read(&mut Cursor::new(text)).unwrap_err()
        };
        assert_eq!(err("x", |c| c.num("node id").map(drop)), "node id");
        assert_eq!(err("+5", |c| c.num("n").map(drop)), "n");
        assert_eq!(err("9:short", |c| c.take_str("value").map(drop)), "value");
        assert_eq!(err("ab", |c| c.take_str("value").map(drop)), "value");
        // A length that ends inside a character is cut short, not a panic.
        assert_eq!(err("1:\u{e9}", |c| c.take_str("text").map(drop)), "text");
        assert_eq!(err(" \n", |c| c.byte(b'\n', "terminator")), "terminator");
    }

    /// U+001F separates fields like whitespace does, so the ops of a
    /// WAL record read one after another.
    #[test]
    fn the_op_separator_separates_fields() {
        let mut cur = Cursor::new("D 5\u{1f}V 6 2:\u{1f}x");
        assert_eq!(cur.token("tag"), Ok("D"));
        assert_eq!(cur.num("node"), Ok(5));
        assert_eq!(cur.token("tag"), Ok("V"));
        assert_eq!(cur.num("node"), Ok(6));
        assert_eq!(cur.take_str("value"), Ok("\u{1f}x"));
        assert!(cur.at_end());
    }
}
