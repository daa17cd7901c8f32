//! Property test: `SimConfig` ⇄ JSON is exact.
//!
//! Random field mutations — every leaf of [`SimConfig::FIELD_PATHS`],
//! including enums, bools and 64-bit integers — round-trip through
//! `to_json` / `from_json` with structural equality and byte-identical
//! re-serialisation. Alongside, the error paths: unknown keys and bad
//! enum names are rejected with messages naming the offender.

use proptest::prelude::*;
use rix::isa::json::Json;
use rix::prelude::*;

/// A type-appropriate random value for one leaf field.
fn value_for(leaf: &str, x: u64) -> Json {
    match leaf {
        "shared_ldst" | "enabled" | "general_reuse" => Json::Bool(x.is_multiple_of(2)),
        "index" => Json::Str(["pc", "opcode_depth"][x as usize % 2].into()),
        "reverse" => {
            Json::Str(["off", "stack_pointer", "all_invertible"][x as usize % 3].into())
        }
        "suppression" => Json::Str(["lisp", "oracle"][x as usize % 2].into()),
        // u64-typed leaves (stack_top, delays) keep full range; the
        // u32 leaves reject values they cannot hold (see
        // `out_of_range_leaves_are_rejected_not_truncated`), so bound the
        // probe to stay representable (round-tripping is about
        // serialisation, not machine buildability).
        "stack_top" => Json::Num(x.to_string()),
        _ => Json::Num((x % (1 << 31)).to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn simconfig_json_round_trip_is_exact(
        muts in proptest::collection::vec(
            (0usize..SimConfig::FIELD_PATHS.len(), any::<u64>()),
            0..12,
        )
    ) {
        let mut cfg = SimConfig::default();
        for (pi, x) in muts {
            let path = SimConfig::FIELD_PATHS[pi];
            let leaf = path.rsplit('.').next().expect("paths are non-empty");
            cfg.set_path(path, &value_for(leaf, x)).expect("valid probe value");
        }
        let json = cfg.to_json();
        let back = SimConfig::from_json(&json).expect("own serialisation parses");
        prop_assert_eq!(back, cfg, "structural equality after the round trip");
        prop_assert_eq!(back.to_json(), json, "byte-identical re-serialisation");
    }
}

#[test]
fn every_preset_round_trips_exactly() {
    for (name, _) in SimConfig::PRESET_NAMES {
        let cfg = SimConfig::preset(name).expect("listed preset resolves");
        let back = SimConfig::from_json(&cfg.to_json()).expect("parses");
        assert_eq!(back, cfg, "preset `{name}`");
        assert_eq!(back.to_json(), cfg.to_json(), "preset `{name}` serialisation");
        // And the emitted JSON is well-formed for external tooling.
        assert!(Json::parse(&cfg.to_json()).is_ok());
    }
}

#[test]
fn unknown_keys_name_the_offender_at_depth() {
    for (doc, offender, suggestion) in [
        (r#"{"nun_pregs": 1}"#, "nun_pregs", "num_pregs"),
        (r#"{"core": {"issue": {"widht": 3}}}"#, "widht", "width"),
        (r#"{"predictor": {"history_bitz": 9}}"#, "history_bitz", "history_bits"),
        (r#"{"mem": {"l2": {"hit_latensy": 9}}}"#, "hit_latensy", "hit_latency"),
    ] {
        let err = SimConfig::from_json(doc).unwrap_err();
        assert!(err.contains(&format!("unknown key `{offender}`")), "{doc}: {err}");
        assert!(err.contains(suggestion), "{doc} suggests `{suggestion}`: {err}");
    }
}

#[test]
fn enum_typos_list_the_choices() {
    let err = SimConfig::from_json(r#"{"integration":{"index":"opcode"}}"#).unwrap_err();
    assert!(err.contains("opcode_depth"), "{err}");
    let err = SimConfig::from_json(r#"{"integration":{"reverse":"stack"}}"#).unwrap_err();
    assert!(err.contains("stack_pointer"), "{err}");
}

#[test]
fn out_of_range_leaves_are_rejected_not_truncated() {
    // 2^32 + k would truncate to k in a u32; it must be refused, naming
    // the key and the value, and leave the configuration usable.
    for (doc, key, value) in [
        (r#"{"integration":{"gen_bits":4294967300}}"#, "gen_bits", "4294967300"),
        (r#"{"integration":{"count_bits":4294967297}}"#, "count_bits", "4294967297"),
        (r#"{"predictor":{"history_bits":4294967309}}"#, "history_bits", "4294967309"),
    ] {
        let err = SimConfig::from_json(doc).unwrap_err();
        assert!(err.contains(&format!("key `{key}`")), "{doc}: {err}");
        assert!(err.contains(value), "{doc} names the value: {err}");
        assert!(err.contains("out of range"), "{doc}: {err}");
        let mut cfg = SimConfig::default();
        let err = cfg.set_path(key, &Json::Num(value.into())).unwrap_err();
        assert!(err.contains(&format!("key `{key}`")), "set_path {key}: {err}");
    }
    // A value that fits still applies.
    let cfg = SimConfig::from_json(r#"{"integration":{"gen_bits":4294967295}}"#).unwrap();
    assert_eq!(cfg.integration.gen_bits, u32::MAX);
}
