//! Self-describing record files — the "I/O" in Portable Binary I/O.
//!
//! Before it was a messaging substrate, PBIO was a trace-file library: a
//! program writes records in its native representation to a file, along
//! with the format meta-information, and any program on any architecture
//! can read them back later — the same NDR machinery, with the file system
//! as the wire. (This lineage continued into FFS and the ADIOS BP format.)
//!
//! A PBIO file is a fixed header followed by the exact message stream the
//! network path uses (format registrations interleaved with data records),
//! so everything about conversion, reflection and type extension applies
//! unchanged to files:
//!
//! ```text
//! file := "PBIOFILE" version:u8 message*
//! ```

use std::io::{Read, Write};

use pbio_types::arch::ArchProfile;
use pbio_types::schema::Schema;
use pbio_types::value::RecordValue;

use crate::error::PbioError;
use crate::reader::{ConversionMode, Reader};
use crate::view::RecordView;
use crate::writer::{FormatId, Writer};

/// Magic bytes opening a PBIO file.
const FILE_MAGIC: &[u8; 8] = b"PBIOFILE";
/// File format version.
const FILE_VERSION: u8 = 1;

/// Writes a PBIO record file through any [`Write`] sink.
pub struct FileWriter<W: Write> {
    writer: Writer,
    sink: W,
    buf: Vec<u8>,
}

impl<W: Write> FileWriter<W> {
    /// Start a new file for a program running on `profile`.
    pub fn create(mut sink: W, profile: &ArchProfile) -> Result<FileWriter<W>, PbioError> {
        sink.write_all(FILE_MAGIC).map_err(io_err)?;
        sink.write_all(&[FILE_VERSION]).map_err(io_err)?;
        Ok(FileWriter {
            writer: Writer::new(profile),
            sink,
            buf: Vec::new(),
        })
    }

    /// Register a record format (meta-information is written to the file the
    /// first time a record of this format is written).
    pub fn register(&mut self, schema: &Schema) -> Result<FormatId, PbioError> {
        self.writer.register(schema)
    }

    /// Append one record given as native bytes.
    fn write_record(&mut self, id: FormatId, native: &[u8]) -> Result<(), PbioError> {
        self.buf.clear();
        self.writer.write(id, native, &mut self.buf)?;
        self.sink.write_all(&self.buf).map_err(io_err)?;
        Ok(())
    }

    /// Append one record given as a dynamic value.
    pub fn write_value(&mut self, id: FormatId, value: &RecordValue) -> Result<(), PbioError> {
        let native = self.writer.encode_value(id, value)?;
        self.write_record(id, &native)
    }

    /// Flush and return the sink.
    pub fn finish(mut self) -> Result<W, PbioError> {
        self.sink.flush().map_err(io_err)?;
        Ok(self.sink)
    }
}

fn io_err(e: std::io::Error) -> PbioError {
    PbioError::Protocol(format!("file I/O error: {e}"))
}

/// Reads a PBIO record file from any [`Read`] source.
pub struct FileReader<R: Read> {
    reader: Reader,
    source: R,
    pending: Vec<u8>,
    eof: bool,
}

impl<R: Read> FileReader<R> {
    /// Open a file for a reading program on `profile` (records convert
    /// through generated code, the DCG mode).
    pub fn open(mut source: R, profile: &ArchProfile) -> Result<FileReader<R>, PbioError> {
        let mut header = [0u8; 9];
        source
            .read_exact(&mut header)
            .map_err(|e| PbioError::Protocol(format!("cannot read file header: {e}")))?;
        if &header[..8] != FILE_MAGIC {
            return Err(PbioError::Protocol("not a PBIO file (bad magic)".into()));
        }
        if header[8] != FILE_VERSION {
            return Err(PbioError::Protocol(format!(
                "unsupported PBIO file version {}",
                header[8]
            )));
        }
        Ok(FileReader {
            reader: Reader::with_mode(profile, ConversionMode::Dcg),
            source,
            pending: Vec::new(),
            eof: false,
        })
    }

    /// Declare a record format this reader wants (optional — undeclared
    /// formats are delivered reflectively in the writer's representation).
    pub fn expect(&mut self, schema: &Schema) -> Result<(), PbioError> {
        self.reader.expect(schema)
    }

    /// Read and dispatch every record in the file.
    pub fn read_all<F>(&mut self, mut on_record: F) -> Result<u64, PbioError>
    where
        F: FnMut(RecordView<'_>),
    {
        let mut count = 0u64;
        let mut chunk = [0u8; 8192];
        loop {
            if !self.eof {
                let n = self.source.read(&mut chunk).map_err(io_err)?;
                if n == 0 {
                    self.eof = true;
                } else {
                    self.pending.extend_from_slice(&chunk[..n]);
                }
            }
            let consumed = self.reader.process(&self.pending, |view| {
                count += 1;
                on_record(view);
            })?;
            self.pending.drain(..consumed);
            if self.eof {
                if !self.pending.is_empty() {
                    return Err(PbioError::TruncatedRecord {
                        need: self.pending.len() + 1,
                        have: self.pending.len(),
                        context: "trailing partial message at end of file".into(),
                    });
                }
                return Ok(count);
            }
        }
    }

    /// Access the underlying [`Reader`] (e.g. for
    /// [`Reader::field_reports`] or [`Reader::wire_layout`] after reading).
    pub fn reader(&self) -> &Reader {
        &self.reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio_types::schema::{AtomType, FieldDecl, TypeDesc};
    use pbio_types::value::Value;
    use std::io::Cursor;

    fn schema() -> Schema {
        Schema::new(
            "trace",
            vec![
                FieldDecl::atom("step", AtomType::CInt),
                FieldDecl::atom("energy", AtomType::CDouble),
                FieldDecl::new("label", TypeDesc::String),
            ],
        )
        .unwrap()
    }

    fn record(step: i32) -> RecordValue {
        RecordValue::new()
            .with("step", step)
            .with("energy", step as f64 * 1.5)
            .with("label", format!("step-{step}").as_str())
    }

    fn write_file(profile: &ArchProfile, n: i32) -> Vec<u8> {
        let mut fw = FileWriter::create(Vec::new(), profile).unwrap();
        let id = fw.register(&schema()).unwrap();
        for step in 0..n {
            fw.write_value(id, &record(step)).unwrap();
        }
        fw.finish().unwrap()
    }

    #[test]
    fn cross_architecture_file_round_trip() {
        for wp in [&ArchProfile::SPARC_V8, &ArchProfile::X86_64] {
            let bytes = write_file(wp, 5);
            for rp in [&ArchProfile::X86, &ArchProfile::MIPS_64] {
                let mut fr = FileReader::open(Cursor::new(&bytes), rp).unwrap();
                fr.expect(&schema()).unwrap();
                let mut step = 0i32;
                let n = fr
                    .read_all(|view| {
                        assert_eq!(view.to_value().unwrap(), record(step));
                        step += 1;
                    })
                    .unwrap();
                assert_eq!(n, 5);
            }
        }
    }

    #[test]
    fn reflective_reading_without_schema() {
        // A generic file-dump tool: no expectations declared.
        let bytes = write_file(&ArchProfile::SPARC_V8, 2);
        let mut fr = FileReader::open(Cursor::new(&bytes), &ArchProfile::X86).unwrap();
        let mut names = Vec::new();
        fr.read_all(|view| {
            names = view
                .layout()
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect();
            assert!(view.get("energy").is_some());
        })
        .unwrap();
        assert_eq!(names, vec!["step", "energy", "label"]);
        assert_eq!(fr.reader().wire_layout(0).unwrap().arch_name(), "sparc-v8");
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let err = match FileReader::open(Cursor::new(b"NOTPBIO!x".to_vec()), &ArchProfile::X86) {
            Err(e) => e,
            Ok(_) => panic!("bad magic accepted"),
        };
        assert!(matches!(err, PbioError::Protocol(_)));

        let mut bytes = write_file(&ArchProfile::X86, 1);
        bytes[8] = 99; // version
        assert!(matches!(
            FileReader::open(Cursor::new(bytes), &ArchProfile::X86),
            Err(PbioError::Protocol(_))
        ));

        assert!(FileReader::open(Cursor::new(vec![1, 2, 3]), &ArchProfile::X86).is_err());
    }

    #[test]
    fn truncated_file_reports_error() {
        let bytes = write_file(&ArchProfile::X86, 3);
        let cut = bytes.len() - 4;
        let mut fr = FileReader::open(Cursor::new(&bytes[..cut]), &ArchProfile::X86).unwrap();
        fr.expect(&schema()).unwrap();
        let err = fr.read_all(|_| {}).unwrap_err();
        assert!(matches!(err, PbioError::TruncatedRecord { .. }));
    }

    #[test]
    fn multiple_formats_in_one_file() {
        let other = Schema::new("aux", vec![FieldDecl::atom("flag", AtomType::Bool)]).unwrap();
        let mut fw = FileWriter::create(Vec::new(), &ArchProfile::ALPHA).unwrap();
        let t = fw.register(&schema()).unwrap();
        let a = fw.register(&other).unwrap();
        fw.write_value(t, &record(0)).unwrap();
        fw.write_value(a, &RecordValue::new().with("flag", true))
            .unwrap();
        fw.write_value(t, &record(1)).unwrap();
        let bytes = fw.finish().unwrap();

        let mut fr = FileReader::open(Cursor::new(&bytes), &ArchProfile::SPARC_V8).unwrap();
        fr.expect(&schema()).unwrap();
        fr.expect(&other).unwrap();
        let mut kinds = Vec::new();
        fr.read_all(|view| kinds.push(view.layout().format_name().to_owned()))
            .unwrap();
        assert_eq!(kinds, vec!["trace", "aux", "trace"]);
    }

    #[test]
    fn type_extension_applies_to_files() {
        // Old tool reading a file written by a newer program version.
        let extended = schema()
            .with_field_appended(FieldDecl::atom("extra", AtomType::CLong))
            .unwrap();
        let mut fw = FileWriter::create(Vec::new(), &ArchProfile::X86_64).unwrap();
        let id = fw.register(&extended).unwrap();
        let mut v = record(9);
        v.set("extra", 7i64);
        fw.write_value(id, &v).unwrap();
        let bytes = fw.finish().unwrap();

        let mut fr = FileReader::open(Cursor::new(&bytes), &ArchProfile::X86).unwrap();
        fr.expect(&schema()).unwrap();
        fr.read_all(|view| {
            assert_eq!(view.get("step"), Some(Value::I64(9)));
            assert_eq!(view.get("extra"), None);
        })
        .unwrap();
    }
}
