//! Integration and property tests for the event-channel layer
//! (`pbio-chan`): compiled filters vs the interpreted reference. Fan-out
//! through the daemon is tested in `netchan.rs`.

use std::sync::Arc;

use proptest::prelude::*;

use pbio_chan::{CmpOp, FilterProgram, Literal, Predicate};
use pbio_integration::profile_strategy;
use pbio_types::layout::Layout;
use pbio_types::schema::{AtomType, FieldDecl, Schema};
use pbio_types::value::{encode_native, RecordValue};

fn event_schema() -> Schema {
    Schema::new(
        "event",
        vec![
            FieldDecl::atom("seq", AtomType::CInt),
            FieldDecl::atom("level", AtomType::CUInt),
            FieldDecl::atom("temp", AtomType::CDouble),
            FieldDecl::atom("ratio", AtomType::CFloat),
            FieldDecl::atom("alarm", AtomType::Bool),
        ],
    )
    .unwrap()
}

fn field_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("seq"),
        Just("level"),
        Just("temp"),
        Just("ratio"),
        Just("alarm"),
    ]
}

fn op_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

fn literal_strategy(field: &str) -> BoxedStrategy<Literal> {
    match field {
        "alarm" => proptest::bool::ANY.prop_map(Literal::Bool).boxed(),
        "temp" | "ratio" => prop_oneof![
            (-100i64..100).prop_map(Literal::Int),
            (-100.0f64..100.0).prop_map(Literal::Float),
        ]
        .boxed(),
        _ => prop_oneof![
            (-100i64..100).prop_map(Literal::Int),
            (-100.0f64..100.0).prop_map(Literal::Float),
        ]
        .boxed(),
    }
}

fn leaf_strategy() -> impl Strategy<Value = Predicate> {
    (field_strategy(), op_strategy()).prop_flat_map(|(field, op)| {
        literal_strategy(field).prop_map(move |lit| Predicate::Cmp {
            field: field.to_owned(),
            op,
            value: lit,
        })
    })
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    leaf_strategy().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

fn record_strategy() -> impl Strategy<Value = RecordValue> {
    (
        -1000i32..1000,
        0u32..1000,
        -100.0f64..100.0,
        -100.0f32..100.0,
        proptest::bool::ANY,
    )
        .prop_map(|(seq, level, temp, ratio, alarm)| {
            RecordValue::new()
                .with("seq", seq)
                .with("level", level)
                .with("temp", temp)
                .with("ratio", ratio as f64)
                .with("alarm", alarm)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compiled filter programs agree with the interpreted reference on
    /// every predicate, record and architecture. Skips the (documented)
    /// bool-vs-order type errors, which both evaluators must agree on too.
    #[test]
    fn compiled_filters_match_interpreter(
        pred in predicate_strategy(),
        rv in record_strategy(),
        p in profile_strategy(),
    ) {
        let layout = Arc::new(Layout::of(&event_schema(), p).unwrap());
        let bytes = encode_native(&rv, &layout).unwrap();
        match FilterProgram::compile(pred.clone(), layout.clone()) {
            Ok(prog) => {
                let compiled = prog.matches(&bytes).unwrap();
                let interpreted = prog.matches_interpreted(&bytes).unwrap();
                prop_assert_eq!(compiled, interpreted, "{:?}", pred);
            }
            Err(e) => {
                // If compilation rejects the predicate, interpretation must
                // reject it too (same type rules).
                let r = pbio_chan::filter::eval_interpreted(&pred, &layout, &bytes);
                prop_assert!(r.is_err(), "compile said {e:?}, interp said {r:?}");
            }
        }
    }

    /// Filters never panic on truncated records.
    #[test]
    fn filters_error_on_truncated_records(
        pred in leaf_strategy(),
        cut in 0usize..8,
        p in profile_strategy(),
    ) {
        let layout = Arc::new(Layout::of(&event_schema(), p).unwrap());
        if let Ok(prog) = FilterProgram::compile(pred, layout) {
            let _ = prog.matches(&vec![0u8; cut]);
        }
    }
}
