//! An Expat-model streaming XML parser.
//!
//! Event-driven: the caller supplies an [`XmlHandler`] whose callbacks fire
//! for element starts, element ends and character data — the structure of
//! Expat, which the paper used as "the fastest [XML parser] known to us at
//! this time" (§4.2). The subset parsed is what record encoding needs:
//! elements (with attributes, reported but typically ignored), character
//! data with the five predefined entities, comments, processing
//! instructions, and self-closing tags. It does not implement DTDs or
//! namespaces — neither does the paper's usage.

use std::fmt;

/// Parse errors with byte positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error was detected.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for XmlError {}

/// The Expat-style callback interface.
pub trait XmlHandler {
    /// An element opened. `attrs` holds (name, decoded value) pairs.
    fn start_element(&mut self, name: &str, attrs: &[(String, String)]) -> Result<(), XmlError>;
    /// An element closed.
    fn end_element(&mut self, name: &str) -> Result<(), XmlError>;
    /// Character data (entity-decoded). May be called multiple times per
    /// element.
    fn characters(&mut self, text: &str) -> Result<(), XmlError>;
}

/// The streaming parser.
pub struct Parser;

impl Parser {
    /// Parse `input`, firing `handler` callbacks. Checks well-formedness of
    /// the tag structure (balanced, single root).
    pub fn parse<H: XmlHandler>(input: &str, handler: &mut H) -> Result<(), XmlError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let mut stack: Vec<String> = Vec::new();
        let mut seen_root = false;
        let mut text_start: Option<usize> = None;

        while pos < bytes.len() {
            if bytes[pos] == b'<' {
                if let Some(ts) = text_start.take() {
                    flush_text(input, ts, pos, &stack, handler)?;
                }
                pos = Self::markup(input, pos, &mut stack, &mut seen_root, handler)?;
            } else {
                if text_start.is_none() {
                    text_start = Some(pos);
                }
                pos += 1;
            }
        }
        if let Some(ts) = text_start {
            flush_text(input, ts, bytes.len(), &stack, handler)?;
        }
        if let Some(open) = stack.last() {
            return Err(XmlError {
                pos,
                msg: format!("unclosed element <{open}>"),
            });
        }
        if !seen_root {
            return Err(XmlError {
                pos: 0,
                msg: "no root element".into(),
            });
        }
        Ok(())
    }

    fn markup<H: XmlHandler>(
        input: &str,
        start: usize,
        stack: &mut Vec<String>,
        seen_root: &mut bool,
        handler: &mut H,
    ) -> Result<usize, XmlError> {
        let bytes = input.as_bytes();
        let pos = start + 1;
        if pos >= bytes.len() {
            return Err(XmlError {
                pos: start,
                msg: "dangling '<'".into(),
            });
        }
        match bytes[pos] {
            b'!' => {
                // Comment or CDATA.
                if input[pos..].starts_with("!--") {
                    match input[pos + 3..].find("-->") {
                        Some(i) => Ok(pos + 3 + i + 3),
                        None => Err(XmlError {
                            pos: start,
                            msg: "unterminated comment".into(),
                        }),
                    }
                } else if input[pos..].starts_with("![CDATA[") {
                    match input[pos + 8..].find("]]>") {
                        Some(i) => {
                            let text = &input[pos + 8..pos + 8 + i];
                            if stack.is_empty() {
                                return Err(XmlError {
                                    pos: start,
                                    msg: "character data outside root".into(),
                                });
                            }
                            handler.characters(text)?;
                            Ok(pos + 8 + i + 3)
                        }
                        None => Err(XmlError {
                            pos: start,
                            msg: "unterminated CDATA".into(),
                        }),
                    }
                } else {
                    Err(XmlError {
                        pos: start,
                        msg: "unsupported '<!' construct".into(),
                    })
                }
            }
            b'?' => match input[pos..].find("?>") {
                Some(i) => Ok(pos + i + 2),
                None => Err(XmlError {
                    pos: start,
                    msg: "unterminated processing instruction".into(),
                }),
            },
            b'/' => {
                let close = input[pos..].find('>').ok_or(XmlError {
                    pos: start,
                    msg: "unterminated end tag".into(),
                })?;
                let name = input[pos + 1..pos + close].trim();
                if name.is_empty() || !is_name(name) {
                    return Err(XmlError {
                        pos: start,
                        msg: format!("bad end tag name {name:?}"),
                    });
                }
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(XmlError {
                            pos: start,
                            msg: format!("mismatched tags: <{open}> closed by </{name}>"),
                        })
                    }
                    None => {
                        return Err(XmlError {
                            pos: start,
                            msg: format!("stray </{name}>"),
                        })
                    }
                }
                handler.end_element(name)?;
                Ok(pos + close + 1)
            }
            _ => {
                // Start tag (possibly self-closing).
                let close = find_tag_end(input, pos).ok_or(XmlError {
                    pos: start,
                    msg: "unterminated start tag".into(),
                })?;
                let self_closing = bytes[close - 1] == b'/';
                let body_end = if self_closing { close - 1 } else { close };
                let body = &input[pos..body_end];
                let (name, attrs) = parse_tag_body(body, start)?;
                if stack.is_empty() {
                    if *seen_root {
                        return Err(XmlError {
                            pos: start,
                            msg: "multiple root elements".into(),
                        });
                    }
                    *seen_root = true;
                }
                handler.start_element(&name, &attrs)?;
                if self_closing {
                    handler.end_element(&name)?;
                } else {
                    stack.push(name);
                }
                Ok(close + 1)
            }
        }
    }
}

fn flush_text<H: XmlHandler>(
    input: &str,
    start: usize,
    end: usize,
    stack: &[String],
    handler: &mut H,
) -> Result<(), XmlError> {
    let raw = &input[start..end];
    if stack.is_empty() {
        if raw.trim().is_empty() {
            return Ok(());
        }
        return Err(XmlError {
            pos: start,
            msg: "character data outside root".into(),
        });
    }
    let decoded = decode_entities(raw, start)?;
    handler.characters(&decoded)
}

/// Find the `>` ending a start tag, respecting quoted attribute values.
fn find_tag_end(input: &str, from: usize) -> Option<usize> {
    let bytes = input.as_bytes();
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match (quote, b) {
            (None, b'>') => return Some(i),
            (None, b'"') | (None, b'\'') => quote = Some(b),
            (Some(q), _) if b == q => quote = None,
            _ => {}
        }
    }
    None
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

fn parse_tag_body(body: &str, pos: usize) -> Result<(String, Vec<(String, String)>), XmlError> {
    let mut it = body.char_indices().peekable();
    let name_end = it
        .find(|(_, c)| c.is_whitespace())
        .map(|(i, _)| i)
        .unwrap_or(body.len());
    let name = &body[..name_end];
    if !is_name(name) {
        return Err(XmlError {
            pos,
            msg: format!("bad element name {name:?}"),
        });
    }
    let mut attrs = Vec::new();
    let mut rest = body[name_end..].trim_start();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or(XmlError {
            pos,
            msg: format!("attribute without value in <{name}>"),
        })?;
        let aname = rest[..eq].trim();
        if !is_name(aname) {
            return Err(XmlError {
                pos,
                msg: format!("bad attribute name {aname:?}"),
            });
        }
        let after = rest[eq + 1..].trim_start();
        let quote = after.chars().next().ok_or(XmlError {
            pos,
            msg: "attribute value missing".into(),
        })?;
        if quote != '"' && quote != '\'' {
            return Err(XmlError {
                pos,
                msg: "attribute value must be quoted".into(),
            });
        }
        let vend = after[1..].find(quote).ok_or(XmlError {
            pos,
            msg: "unterminated attribute value".into(),
        })?;
        let value = decode_entities(&after[1..1 + vend], pos)?;
        attrs.push((aname.to_owned(), value));
        rest = after[vend + 2..].trim_start();
    }
    Ok((name.to_owned(), attrs))
}

/// Decode the five predefined entities plus numeric character references.
fn decode_entities(raw: &str, pos: usize) -> Result<String, XmlError> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        let semi = tail.find(';').ok_or(XmlError {
            pos,
            msg: "unterminated entity".into(),
        })?;
        let ent = &tail[1..semi];
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let cp = u32::from_str_radix(&ent[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or(XmlError {
                        pos,
                        msg: format!("bad character reference &{ent};"),
                    })?;
                out.push(cp);
            }
            _ if ent.starts_with('#') => {
                let cp = ent[1..]
                    .parse::<u32>()
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or(XmlError {
                        pos,
                        msg: format!("bad character reference &{ent};"),
                    })?;
                out.push(cp);
            }
            _ => {
                return Err(XmlError {
                    pos,
                    msg: format!("unknown entity &{ent};"),
                })
            }
        }
        rest = &tail[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Escape text for element content.
pub fn escape_into(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl XmlHandler for Recorder {
        fn start_element(
            &mut self,
            name: &str,
            attrs: &[(String, String)],
        ) -> Result<(), XmlError> {
            let mut s = format!("+{name}");
            for (k, v) in attrs {
                s.push_str(&format!(" {k}={v}"));
            }
            self.events.push(s);
            Ok(())
        }
        fn end_element(&mut self, name: &str) -> Result<(), XmlError> {
            self.events.push(format!("-{name}"));
            Ok(())
        }
        fn characters(&mut self, text: &str) -> Result<(), XmlError> {
            if !text.trim().is_empty() {
                self.events.push(format!("t:{}", text.trim()));
            }
            Ok(())
        }
    }

    fn events(xml: &str) -> Vec<String> {
        let mut r = Recorder::default();
        Parser::parse(xml, &mut r).unwrap();
        r.events
    }

    #[test]
    fn basic_nested_document() {
        let ev = events("<rec><a>1</a><b><c>x</c></b></rec>");
        assert_eq!(
            ev,
            vec!["+rec", "+a", "t:1", "-a", "+b", "+c", "t:x", "-c", "-b", "-rec"]
        );
    }

    #[test]
    fn attributes_and_self_closing() {
        let ev = events(r#"<r kind="m 1" n='2'><empty/></r>"#);
        assert_eq!(ev, vec!["+r kind=m 1 n=2", "+empty", "-empty", "-r"]);
    }

    #[test]
    fn entities_decode() {
        let ev = events("<r>a&amp;b &lt;tag&gt; &#65;&#x42;</r>");
        assert_eq!(ev, vec!["+r", "t:a&b <tag> AB", "-r"]);
    }

    #[test]
    fn comments_pi_and_cdata() {
        let ev = events("<?xml version=\"1.0\"?><!-- hi --><r><![CDATA[1<2&3]]></r>");
        assert_eq!(ev, vec!["+r", "t:1<2&3", "-r"]);
    }

    #[test]
    fn quoted_gt_inside_attribute() {
        let ev = events(r#"<r note="a>b">x</r>"#);
        assert_eq!(ev, vec!["+r note=a>b", "t:x", "-r"]);
    }

    #[test]
    fn malformed_documents_error() {
        for bad in [
            "<r><a></r>",       // mismatch
            "<r>",              // unclosed
            "</r>",             // stray close
            "text",             // no root
            "<r></r><r2></r2>", // two roots
            "<r>&unknown;</r>", // bad entity
            "<r><a b></a></r>", // attr without value
            "<1bad></1bad>",    // bad name
            "<r><!-- x</r>",    // unterminated comment
            "<r>&#xZZ;</r>",    // bad char ref
        ] {
            let mut rec = Recorder::default();
            assert!(Parser::parse(bad, &mut rec).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let mut rec = Recorder::default();
        let err = Parser::parse("<root><a></b></root>", &mut rec).unwrap_err();
        assert_eq!(err.pos, 9);
    }

    #[test]
    fn escape_round_trips() {
        let mut s = String::new();
        escape_into("a&b<c>d", &mut s);
        assert_eq!(s, "a&amp;b&lt;c&gt;d");
        assert_eq!(decode_entities(&s, 0).unwrap(), "a&b<c>d");
    }
}
