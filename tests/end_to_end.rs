//! End-to-end integration: Writer → bytes → Reader, in memory and over a
//! TCP loopback, across segmentations, conversion modes and architecture
//! pairs.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use pbio::{ConversionMode, Reader, Writer};
use pbio_types::schema::{AtomType, FieldDecl, Schema, TypeDesc};
use pbio_types::value::{RecordValue, Value};
use pbio_types::ArchProfile;

fn telemetry_schema() -> Schema {
    Schema::new(
        "telemetry",
        vec![
            FieldDecl::atom("seq", AtomType::CInt),
            FieldDecl::atom("timestep", AtomType::CLong),
            FieldDecl::atom("value", AtomType::CDouble),
            FieldDecl::new("samples", TypeDesc::array(AtomType::CFloat, 5)),
            FieldDecl::new("source", TypeDesc::String),
        ],
    )
    .unwrap()
}

fn telemetry_record(seq: i32) -> RecordValue {
    RecordValue::new()
        .with("seq", seq)
        .with("timestep", (seq as i64) * 7)
        .with("value", seq as f64 * 0.5 - 3.0)
        .with(
            "samples",
            Value::Array(
                (0..5)
                    .map(|i| Value::F64((seq + i) as f64 * 0.25))
                    .collect(),
            ),
        )
        .with("source", format!("sensor-{seq}").as_str())
}

/// A full stream for every (sender, receiver) profile pair. Partial
/// delivery is `incremental_stream_consumption`'s job.
#[test]
fn pipe_exchange_all_profile_pairs() {
    let schema = telemetry_schema();
    for sp in ArchProfile::all() {
        for dp in ArchProfile::all() {
            let mut writer = Writer::new(sp);
            let fmt = writer.register(&schema).unwrap();
            let mut out = Vec::new();
            for seq in 0..4 {
                writer
                    .write_value(fmt, &telemetry_record(seq), &mut out)
                    .unwrap();
            }

            let mut reader = Reader::new(dp);
            reader.expect(&schema).unwrap();
            let mut got = Vec::new();
            let consumed = reader
                .process(&out, |view| got.push(view.to_value().unwrap()))
                .unwrap();
            assert_eq!(consumed, out.len(), "{} -> {}", sp.name, dp.name);
            assert_eq!(got.len(), 4);
            for (seq, v) in got.iter().enumerate() {
                assert_eq!(
                    v,
                    &telemetry_record(seq as i32),
                    "{} -> {}",
                    sp.name,
                    dp.name
                );
            }
        }
    }
}

/// Incremental delivery: feed the reader byte-by-byte prefixes, always
/// resuming from `consumed`.
#[test]
fn incremental_stream_consumption() {
    let schema = telemetry_schema();
    let mut writer = Writer::new(&ArchProfile::SPARC_V8);
    let fmt = writer.register(&schema).unwrap();
    let mut stream = Vec::new();
    for seq in 0..3 {
        writer
            .write_value(fmt, &telemetry_record(seq), &mut stream)
            .unwrap();
    }

    let mut reader = Reader::new(&ArchProfile::X86_64);
    reader.expect(&schema).unwrap();

    let mut got = Vec::new();
    let mut pending: Vec<u8> = Vec::new();
    for &b in &stream {
        pending.push(b);
        let consumed = reader
            .process(&pending, |view| got.push(view.to_value().unwrap()))
            .unwrap();
        pending.drain(..consumed);
    }
    assert!(pending.is_empty());
    assert_eq!(got.len(), 3);
    for (seq, v) in got.iter().enumerate() {
        assert_eq!(v, &telemetry_record(seq as i32));
    }
}

/// TCP loopback: real sockets carrying a PBIO stream.
#[test]
fn tcp_exchange() {
    let schema = telemetry_schema();
    let mut writer = Writer::new(&ArchProfile::MIPS_N32);
    let fmt = writer.register(&schema).unwrap();
    let mut stream = Vec::new();
    for seq in 0..5 {
        writer
            .write_value(fmt, &telemetry_record(seq), &mut stream)
            .unwrap();
    }

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut server, _) = listener.accept().unwrap();
    client.write_all(&stream).unwrap();
    let mut received = vec![0u8; stream.len()];
    server.read_exact(&mut received).unwrap();

    let mut reader = Reader::with_mode(&ArchProfile::X86, ConversionMode::Interpreted);
    reader.expect(&schema).unwrap();
    let mut count = 0;
    reader
        .process(&received, |view| {
            assert_eq!(view.get("seq"), Some(Value::I64(count)));
            count += 1;
        })
        .unwrap();
    assert_eq!(count, 5);
}

/// Several formats interleaved on one stream, with one of them unknown to
/// the receiver (read via reflection).
#[test]
fn multiplexed_formats_with_reflection() {
    let known = telemetry_schema();
    let unknown = Schema::new(
        "surprise",
        vec![
            FieldDecl::atom("code", AtomType::CInt),
            FieldDecl::new("msg", TypeDesc::String),
        ],
    )
    .unwrap();

    let mut writer = Writer::new(&ArchProfile::ALPHA);
    let f1 = writer.register(&known).unwrap();
    let f2 = writer.register(&unknown).unwrap();
    let mut stream = Vec::new();
    writer
        .write_value(f1, &telemetry_record(0), &mut stream)
        .unwrap();
    writer
        .write_value(
            f2,
            &RecordValue::new()
                .with("code", 418i32)
                .with("msg", "teapot"),
            &mut stream,
        )
        .unwrap();
    writer
        .write_value(f1, &telemetry_record(1), &mut stream)
        .unwrap();

    let mut reader = Reader::new(&ArchProfile::SPARC_V9_64);
    reader.expect(&known).unwrap();
    let mut names = Vec::new();
    reader
        .process(&stream, |view| {
            names.push(view.layout().format_name().to_owned());
            if view.layout().format_name() == "surprise" {
                // Reflection path: wire layout, foreign representation.
                assert!(view.is_zero_copy());
                assert_eq!(view.get("code"), Some(Value::I64(418)));
                assert_eq!(view.get("msg"), Some(Value::Str("teapot".into())));
            }
        })
        .unwrap();
    assert_eq!(names, vec!["telemetry", "surprise", "telemetry"]);
}

/// Zero-copy claim: on a homogeneous exchange the view's bytes alias the
/// stream buffer.
#[test]
fn zero_copy_aliases_receive_buffer() {
    let schema = Schema::new(
        "flat",
        vec![
            FieldDecl::atom("a", AtomType::CInt),
            FieldDecl::atom("b", AtomType::CDouble),
        ],
    )
    .unwrap();
    let mut writer = Writer::new(&ArchProfile::X86_64);
    let fmt = writer.register(&schema).unwrap();
    let mut stream = Vec::new();
    writer
        .write_value(
            fmt,
            &RecordValue::new().with("a", 1i32).with("b", 2.0f64),
            &mut stream,
        )
        .unwrap();

    let mut reader = Reader::new(&ArchProfile::X86_64);
    reader.expect(&schema).unwrap();
    let range = stream.as_ptr() as usize..stream.as_ptr() as usize + stream.len();
    reader
        .process(&stream, |view| {
            assert!(view.is_zero_copy());
            let p = view.bytes().as_ptr() as usize;
            assert!(
                range.contains(&p),
                "zero-copy view must alias the stream buffer"
            );
        })
        .unwrap();
}

/// Conversion modes are behaviourally identical on the same stream.
#[test]
fn conversion_modes_equivalent_end_to_end() {
    let schema = telemetry_schema();
    let mut writer = Writer::new(&ArchProfile::SPARC_V8);
    let fmt = writer.register(&schema).unwrap();
    let mut stream = Vec::new();
    for seq in 0..3 {
        writer
            .write_value(fmt, &telemetry_record(seq), &mut stream)
            .unwrap();
    }

    let mut results = Vec::new();
    for mode in [
        ConversionMode::Interpreted,
        ConversionMode::DcgNaive,
        ConversionMode::Dcg,
    ] {
        let mut reader = Reader::with_mode(&ArchProfile::X86, mode);
        reader.expect(&schema).unwrap();
        let mut got = Vec::new();
        reader
            .process(&stream, |view| got.push(view.to_value().unwrap()))
            .unwrap();
        results.push(got);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

/// Vectored (zero-copy) transmission: `Writer::frame` emits only control
/// bytes; the payload is sent straight from the application's buffer — the
/// path the paper's zero-copy messaging integration (§5) relies on. The
/// receiver cannot tell the difference.
#[test]
fn vectored_framing_equivalent_to_buffered_write() {
    let schema = telemetry_schema();
    let mut w = Writer::new(&ArchProfile::SPARC_V8);
    let fmt = w.register(&schema).unwrap();
    let record = telemetry_record(3);
    let native = w.encode_value(fmt, &record).unwrap();

    // Buffered path.
    let mut buffered = Vec::new();
    w.write(fmt, &native, &mut buffered).unwrap();

    // Vectored path (fresh writer so the announcement happens again):
    // control bytes and payload travel as separate segments.
    let mut w2 = Writer::new(&ArchProfile::SPARC_V8);
    let fmt2 = w2.register(&schema).unwrap();
    let mut control = Vec::new();
    w2.frame(fmt2, native.len(), &mut control).unwrap();
    let mut vectored = control.clone();
    vectored.extend_from_slice(&native);
    assert_eq!(buffered, vectored, "identical bytes on the wire");

    let mut r = Reader::new(&ArchProfile::X86_64);
    r.expect(&schema).unwrap();
    let mut seen = 0;
    r.process(&vectored, |view| {
        assert_eq!(view.to_value().unwrap(), record);
        seen += 1;
    })
    .unwrap();
    assert_eq!(seen, 1);
}

/// A corrupted message kind aborts processing with an error, not a panic.
#[test]
fn corrupt_stream_errors() {
    let schema = telemetry_schema();
    let mut writer = Writer::new(&ArchProfile::X86);
    let fmt = writer.register(&schema).unwrap();
    let mut stream = Vec::new();
    writer
        .write_value(fmt, &telemetry_record(0), &mut stream)
        .unwrap();
    stream[0] = 0xFF; // bad message kind

    let mut reader = Reader::new(&ArchProfile::X86);
    reader.expect(&schema).unwrap();
    assert!(reader.process(&stream, |_| {}).is_err());
}
