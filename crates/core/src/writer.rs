//! The sending side: Natural Data Representation encoding.
//!
//! "No translation is done at the writer's end" (§3). A [`Writer`] registers
//! record formats (computing the native layout for its architecture once)
//! and then *frames* records: a 9-byte header plus the caller's native bytes.
//! The first record of each format is preceded by a format-registration
//! message carrying the serialized layout.
//!
//! The NDR invariant — sender-side cost is O(1) in record size for
//! fixed-layout records — is what Figure 2 measures: "while MPICH's costs
//! … vary from 34 µsec for the 100 byte record up to 13 msec for the 100Kb
//! record, PBIO's cost is a flat 3 µsec" (§4.2). [`Writer::frame`] is that
//! flat cost: it emits only the header, leaving the payload for vectored
//! transmission; [`Writer::write`] additionally copies the payload into the
//! output stream (modeling a buffered socket write).

use std::collections::HashMap;
use std::sync::Arc;

use pbio_obs::Span;
use pbio_types::arch::ArchProfile;
use pbio_types::layout::Layout;
use pbio_types::meta::serialize_layout;
use pbio_types::schema::Schema;
use pbio_types::value::{encode_native, encode_native_into, RecordValue};

use crate::error::PbioError;
use crate::message::{put_header, KIND_DATA, KIND_FORMAT};
use crate::pool::BufPool;
use crate::registry::FormatServer;

/// Identifier assigned to a registered format (stream-scoped for local
/// writers; globally consistent when writers share a
/// [`crate::registry::FormatServer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FormatId(pub u32);

struct WriterFormat {
    layout: Arc<Layout>,
    meta: Arc<[u8]>,
    announced: bool,
}

/// The sending endpoint of a PBIO stream.
pub struct Writer {
    profile: ArchProfile,
    formats: HashMap<u32, WriterFormat>,
    next_local: u32,
    server: Option<Arc<FormatServer>>,
    /// Scratch for value encoding ([`Writer::write_value`]).
    pool: Arc<BufPool>,
}

impl Writer {
    /// Create a writer for a machine with the given architecture profile.
    pub fn new(profile: &ArchProfile) -> Writer {
        Writer {
            profile: profile.clone(),
            formats: HashMap::new(),
            next_local: 0,
            server: None,
            pool: BufPool::new(),
        }
    }

    /// Create a writer whose format ids come from a shared
    /// [`FormatServer`], so every writer in the process assigns identical
    /// ids to identical formats (PBIO's format-server deployment).
    pub fn with_server(profile: &ArchProfile, server: Arc<FormatServer>) -> Writer {
        Writer {
            profile: profile.clone(),
            formats: HashMap::new(),
            next_local: 0,
            server: Some(server),
            pool: BufPool::new(),
        }
    }

    /// The writer's scratch pool (counters via [`BufPool::stats`]).
    pub fn pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// The writer's architecture.
    pub fn profile(&self) -> &ArchProfile {
        &self.profile
    }

    /// Register a record format. The layout (and its serialized
    /// meta-information) is computed once, here — never per record.
    /// Registering an identical format twice returns the same id.
    pub fn register(&mut self, schema: &Schema) -> Result<FormatId, PbioError> {
        let layout = Arc::new(Layout::of(schema, &self.profile)?);
        let (id, meta) = match &self.server {
            Some(server) => {
                let (id, meta, _) = server.register(&layout);
                (id, meta)
            }
            None => {
                let id = self.next_local;
                self.next_local += 1;
                (id, Arc::from(serialize_layout(&layout)))
            }
        };
        self.formats.entry(id).or_insert(WriterFormat {
            layout,
            meta,
            announced: false,
        });
        Ok(FormatId(id))
    }

    /// The native layout of a registered format.
    pub fn layout(&self, id: FormatId) -> Result<&Arc<Layout>, PbioError> {
        self.formats
            .get(&id.0)
            .map(|f| &f.layout)
            .ok_or(PbioError::UnknownFormat(id.0))
    }

    fn format_mut(&mut self, id: FormatId) -> Result<&mut WriterFormat, PbioError> {
        self.formats
            .get_mut(&id.0)
            .ok_or(PbioError::UnknownFormat(id.0))
    }

    fn validate_payload(
        fmt: &WriterFormat,
        payload_len: usize,
        id: FormatId,
    ) -> Result<(), PbioError> {
        let need = fmt.layout.size();
        let exact = fmt.layout.is_fixed_layout();
        if payload_len < need || (exact && payload_len != need) {
            return Err(PbioError::Protocol(format!(
                "format {} payload is {payload_len} bytes, layout requires {}{need}",
                id.0,
                if exact { "exactly " } else { "at least " }
            )));
        }
        Ok(())
    }

    /// Emit the control bytes for one record — the registration message (once
    /// per format) and the data header — *without* touching the payload.
    /// Callers transmit `payload` separately (vectored / zero-copy I/O).
    pub fn frame(
        &mut self,
        id: FormatId,
        payload_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), PbioError> {
        let fmt = self.format_mut(id)?;
        Self::validate_payload(fmt, payload_len, id)?;
        if !fmt.announced {
            fmt.announced = true;
            put_header(out, KIND_FORMAT, id.0, fmt.meta.len());
            out.extend_from_slice(&fmt.meta);
        }
        put_header(out, KIND_DATA, id.0, payload_len);
        Ok(())
    }

    /// Frame and append one record in the sender's native representation.
    /// This is the whole of PBIO's per-record sender-side work: one header
    /// and one buffered copy of the native bytes.
    pub fn write(
        &mut self,
        id: FormatId,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), PbioError> {
        self.frame(id, payload.len(), out)?;
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Convenience: encode a dynamic [`RecordValue`] to the writer's native
    /// representation and write it. The encoding step models the *application*
    /// producing its data and is not part of PBIO's wire cost.
    pub fn write_value(
        &mut self,
        id: FormatId,
        value: &RecordValue,
        out: &mut Vec<u8>,
    ) -> Result<(), PbioError> {
        let layout = self.layout(id)?.clone();
        let mut native = self.pool.get(layout.size());
        {
            let _span = Span::enter(crate::metrics::encode_ns());
            encode_native_into(value, &layout, &mut native)?;
        }
        self.write(id, &native, out)
    }

    /// Encode a value to this writer's native representation without writing
    /// it (application-side data preparation). Allocates per call — a test
    /// and tooling convenience; [`Writer::write_value`] encodes through the
    /// writer's pool instead.
    pub fn encode_value(&self, id: FormatId, value: &RecordValue) -> Result<Vec<u8>, PbioError> {
        let layout = self.layout(id)?;
        Ok(encode_native(value, layout)?)
    }

    /// Number of registered formats.
    pub fn format_count(&self) -> usize {
        self.formats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, MessageIter};
    use pbio_types::schema::{AtomType, FieldDecl};

    /// Forget which formats `w` has announced, as for a new connection
    /// that has not seen the registration messages.
    fn reset_announcements(w: &mut Writer) {
        for f in w.formats.values_mut() {
            f.announced = false;
        }
    }

    fn schema() -> Schema {
        Schema::new(
            "point",
            vec![
                FieldDecl::atom("x", AtomType::CDouble),
                FieldDecl::atom("y", AtomType::CDouble),
            ],
        )
        .unwrap()
    }

    #[test]
    fn first_write_announces_format_once() {
        let mut w = Writer::new(&ArchProfile::SPARC_V8);
        let id = w.register(&schema()).unwrap();
        let native = vec![0u8; w.layout(id).unwrap().size()];
        let mut out = Vec::new();
        w.write(id, &native, &mut out).unwrap();
        w.write(id, &native, &mut out).unwrap();
        let msgs: Vec<_> = MessageIter::new(&out).collect::<Result<_, _>>().unwrap();
        assert_eq!(msgs.len(), 3);
        assert!(matches!(msgs[0], Message::Format { id: 0, .. }));
        assert!(matches!(msgs[1], Message::Data { id: 0, .. }));
        assert!(matches!(msgs[2], Message::Data { id: 0, .. }));
    }

    #[test]
    fn payload_size_is_validated() {
        let mut w = Writer::new(&ArchProfile::X86);
        let id = w.register(&schema()).unwrap();
        let mut out = Vec::new();
        assert!(matches!(
            w.write(id, &[0u8; 3], &mut out),
            Err(PbioError::Protocol(_))
        ));
        // Oversized fixed-layout payload also rejected.
        let too_big = vec![0u8; w.layout(id).unwrap().size() + 1];
        assert!(matches!(
            w.write(id, &too_big, &mut out),
            Err(PbioError::Protocol(_))
        ));
    }

    #[test]
    fn unknown_format_id_rejected() {
        let mut w = Writer::new(&ArchProfile::X86);
        let mut out = Vec::new();
        assert!(matches!(
            w.write(FormatId(9), &[], &mut out),
            Err(PbioError::UnknownFormat(9))
        ));
    }

    #[test]
    fn frame_emits_constant_control_bytes() {
        // The NDR invariant: control bytes don't grow with the payload.
        let big = Schema::new(
            "big",
            vec![FieldDecl::new(
                "v",
                pbio_types::schema::TypeDesc::array(AtomType::CDouble, 12_500),
            )],
        )
        .unwrap();
        let mut w = Writer::new(&ArchProfile::SPARC_V8);
        let id_small = w.register(&schema()).unwrap();
        let id_big = w.register(&big).unwrap();
        let small_len = w.layout(id_small).unwrap().size();
        let big_len = w.layout(id_big).unwrap().size();

        let mut out1 = Vec::new();
        w.frame(id_small, small_len, &mut out1).unwrap();
        let mut out2 = Vec::new();
        w.frame(id_big, big_len, &mut out2).unwrap();
        // After announcement, both cost exactly one header.
        let mut out3 = Vec::new();
        w.frame(id_small, small_len, &mut out3).unwrap();
        let mut out4 = Vec::new();
        w.frame(id_big, big_len, &mut out4).unwrap();
        assert_eq!(out3.len(), out4.len());
        assert_eq!(out3.len(), crate::message::HEADER_SIZE);
    }

    #[test]
    fn write_value_round_trips_via_layout() {
        let mut w = Writer::new(&ArchProfile::X86);
        let id = w.register(&schema()).unwrap();
        let value = RecordValue::new().with("x", 1.5f64).with("y", -2.5f64);
        let mut out = Vec::new();
        w.write_value(id, &value, &mut out).unwrap();
        let msgs: Vec<_> = MessageIter::new(&out).collect::<Result<_, _>>().unwrap();
        match msgs[1] {
            Message::Data { payload, .. } => {
                let layout = w.layout(id).unwrap();
                let back = pbio_types::value::decode_native(payload, layout).unwrap();
                assert_eq!(back, value);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_server_gives_consistent_ids() {
        let server = crate::registry::FormatServer::new();
        let mut w1 = Writer::with_server(&ArchProfile::X86, server.clone());
        let mut w2 = Writer::with_server(&ArchProfile::X86, server.clone());
        let id1 = w1.register(&schema()).unwrap();
        let id2 = w2.register(&schema()).unwrap();
        assert_eq!(id1, id2, "same format, same id on both connections");
        // A different-architecture writer produces a different format.
        let mut w3 = Writer::with_server(&ArchProfile::SPARC_V8, server.clone());
        let id3 = w3.register(&schema()).unwrap();
        assert_ne!(id1, id3);
        assert_eq!(server.len(), 2);
        // Re-registering on one writer is idempotent.
        assert_eq!(w1.register(&schema()).unwrap(), id1);
        assert_eq!(w1.format_count(), 1);
    }

    #[test]
    fn reset_announcements_resends_meta() {
        let mut w = Writer::new(&ArchProfile::X86);
        let id = w.register(&schema()).unwrap();
        let native = vec![0u8; w.layout(id).unwrap().size()];
        let mut out = Vec::new();
        w.write(id, &native, &mut out).unwrap();
        reset_announcements(&mut w);
        let mut out2 = Vec::new();
        w.write(id, &native, &mut out2).unwrap();
        let msgs: Vec<_> = MessageIter::new(&out2).collect::<Result<_, _>>().unwrap();
        assert!(matches!(msgs[0], Message::Format { .. }));
    }
}
