//! Fuzz-style decoder hardening: every deserializer of the table layer
//! must reject arbitrary and mutated bytes with a typed error — never a
//! panic, never an out-of-bounds slice.

use proptest::prelude::*;

use iva_swt::{
    decode_record, encode_record, AttrId, AttrType, Catalog, RecordFields, TableStats, Tuple, Value,
};

fn sample_tuple() -> Tuple {
    Tuple::new()
        .with(AttrId(0), Value::text("Digital Camera"))
        .with(AttrId(3), Value::num(230.0))
        .with(AttrId(9), Value::texts(["Computer", "Software"]))
}

fn sample_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.define("name", AttrType::Text).unwrap();
    c.define("price", AttrType::Numeric).unwrap();
    c.define("company", AttrType::Text).unwrap();
    c
}

/// Walk `bytes` with the borrowed field iterator alone — acceptance is
/// decided without materializing anything — then build the tuple from the
/// accepted fields (last occurrence of an attribute wins, as in
/// `decode_record`). Returns the tuple and the bytes consumed, or the
/// first error.
fn via_iterator(bytes: &[u8]) -> Result<(Tuple, usize), String> {
    let mut fields = RecordFields::new(bytes).map_err(|e| e.to_string())?;
    let mut accepted = Vec::new();
    for field in fields.by_ref() {
        accepted.push(field.map_err(|e| e.to_string())?);
    }
    let mut tuple = Tuple::new();
    for (attr, value) in accepted {
        let value = value
            .to_value()
            .expect("a field the iterator accepted must materialize");
        tuple.set(attr, value);
    }
    Ok((tuple, fields.consumed()))
}

/// The borrowed iterator and `decode_record` must agree on every input:
/// both accept with the same tuple and length, or both reject.
fn assert_parity(bytes: &[u8]) {
    let decoded = decode_record(bytes).map_err(|e| e.to_string());
    let walked = via_iterator(bytes);
    match (&decoded, &walked) {
        (Ok(d), Ok(w)) => {
            assert_eq!(d.1, w.1, "consumed lengths differ on {bytes:?}");
            // Compare bit patterns: a mutated float may be NaN.
            assert_eq!(
                format!("{:?}", d.0),
                format!("{:?}", w.0),
                "tuples differ on {bytes:?}"
            );
        }
        (Err(_), Err(_)) => {}
        _ => panic!("decoder parity broken on {bytes:?}: decode {decoded:?}, iterator {walked:?}"),
    }
}

/// A header announcing `n_fields` followed by one text field whose single
/// string claims `slen` bytes but carries only `have`.
fn oversized_string(n_fields: u16, slen: u16, have: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&n_fields.to_le_bytes());
    buf.extend_from_slice(&7u32.to_le_bytes());
    buf.push(1); // text tag
    buf.push(1); // one string
    buf.extend_from_slice(&slen.to_le_bytes());
    buf.resize(buf.len() + have, b'x');
    buf
}

#[test]
fn oversized_lengths_are_rejected_by_both_decoders() {
    // A string length past the end of the record.
    for (slen, have) in [(u16::MAX, 3), (10, 9), (1, 0)] {
        let buf = oversized_string(1, slen, have);
        assert!(decode_record(&buf).is_err());
        assert_parity(&buf);
    }
    // A field count far beyond the fields present.
    let mut buf = Vec::new();
    encode_record(&sample_tuple(), &mut buf).unwrap();
    buf[..2].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(decode_record(&buf).is_err());
    assert_parity(&buf);
    // A string count beyond the strings present.
    let mut buf = oversized_string(1, 2, 2);
    buf[6] = 255;
    assert!(decode_record(&buf).is_err());
    assert_parity(&buf);
    // An empty text value and a non-UTF-8 string the caller never reads.
    let mut empty = oversized_string(1, 0, 0);
    empty[6] = 0;
    empty.truncate(7);
    assert_parity(&empty);
    assert!(decode_record(&empty).is_err());
    let mut bad_utf8 = oversized_string(1, 2, 0);
    bad_utf8.extend_from_slice(&[0xff, 0xfe]);
    assert!(decode_record(&bad_utf8).is_err());
    assert_parity(&bad_utf8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoder parity on arbitrary bytes.
    #[test]
    fn iterator_matches_decoder_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        assert_parity(&bytes);
    }

    /// Decoder parity on every truncation and single-byte flip of a valid
    /// record, and on the record with any length field forced to its
    /// maximum.
    #[test]
    fn iterator_matches_decoder_on_damaged_records(
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
        cut in any::<prop::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        encode_record(&sample_tuple(), &mut buf).unwrap();
        assert_parity(&buf);
        let cut = cut.index(buf.len());
        assert_parity(&buf[..cut]);
        let mut flipped = buf.clone();
        let at = at.index(flipped.len());
        flipped[at] ^= xor;
        assert_parity(&flipped);
        let mut oversized = buf.clone();
        oversized[at] = 0xff;
        if let Some(next) = oversized.get_mut(at + 1) {
            *next = 0xff;
        }
        assert_parity(&oversized);
    }

    /// Arbitrary bytes through every decoder: a `Result`/`Option`, never
    /// a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_record(&bytes);
        let _ = Catalog::decode(&bytes);
        let _ = TableStats::decode(&bytes);
    }

    /// A valid record with one mutated byte either still decodes to *a*
    /// tuple or errors — it must never panic. Mutations penetrate much
    /// deeper into the field loop than random bytes do.
    #[test]
    fn mutated_record_never_panics(
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
        cut in any::<prop::sample::Index>(),
    ) {
        let mut buf = Vec::new();
        encode_record(&sample_tuple(), &mut buf).unwrap();
        let mut mutated = buf.clone();
        let at = at.index(mutated.len());
        mutated[at] ^= xor;
        let _ = decode_record(&mutated);
        // And every truncation of the valid encoding.
        let cut = cut.index(buf.len());
        let _ = decode_record(&buf[..cut]);
    }

    /// Same for the catalog sidecar payload.
    #[test]
    fn mutated_catalog_never_panics(
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
        cut in any::<prop::sample::Index>(),
    ) {
        let buf = sample_catalog().encode();
        let mut mutated = buf.clone();
        let at = at.index(mutated.len());
        mutated[at] ^= xor;
        let _ = Catalog::decode(&mutated);
        let cut = cut.index(buf.len());
        let _ = Catalog::decode(&buf[..cut]);
    }

    /// Same for the table statistics payload.
    #[test]
    fn mutated_stats_never_panic(
        at in any::<prop::sample::Index>(),
        xor in 1u8..255,
        cut in any::<prop::sample::Index>(),
    ) {
        let mut stats = TableStats::new();
        stats.ensure_attrs(3);
        stats.observe_insert(&sample_tuple());
        let buf = stats.encode();
        let mut mutated = buf.clone();
        let at = at.index(mutated.len());
        mutated[at] ^= xor;
        let _ = TableStats::decode(&mutated);
        let cut = cut.index(buf.len());
        let _ = TableStats::decode(&buf[..cut]);
    }
}
