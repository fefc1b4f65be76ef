//! Property tests for the heap table: a model-based check against a
//! straightforward `HashMap` reference model.

use proptest::prelude::*;
use std::collections::HashMap;
use youtopia_storage::{IndexKind, RowId, Schema, Table, Value, ValueType};

#[derive(Debug, Clone)]
enum OpK {
    Insert(i64),
    Delete(u8),
    Update(u8, i64),
    Lookup(i64),
}

fn arb_op() -> impl Strategy<Value = OpK> {
    // A small value domain, so lookups hit and updates re-key onto values
    // other rows hold.
    let v = || 0i64..8;
    prop_oneof![
        v().prop_map(OpK::Insert),
        any::<u8>().prop_map(OpK::Delete),
        (any::<u8>(), v()).prop_map(|(r, v)| OpK::Update(r, v)),
        v().prop_map(OpK::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The table agrees with a reference model under arbitrary op
    /// sequences, with and without a named index on the value column (whose
    /// postings go stale under deletes and updates — the probe must screen
    /// them out).
    #[test]
    fn table_matches_reference_model(
        ops in prop::collection::vec(arb_op(), 1..60),
        with_index in any::<bool>(),
    ) {
        let mut table = Table::new("t", Schema::of(&[("v", ValueType::Int)]));
        if with_index {
            table.create_named_index("t_v", &["v"], IndexKind::Hash).expect("index");
        }
        let mut model: HashMap<u64, i64> = HashMap::new();
        let mut ids: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                OpK::Insert(v) => {
                    let id = table.insert(vec![Value::Int(v)]).expect("insert");
                    model.insert(id.0, v);
                    ids.push(id.0);
                }
                OpK::Delete(r) => {
                    if ids.is_empty() { continue; }
                    let id = ids[r as usize % ids.len()];
                    let t = table.delete(RowId(id));
                    let m = model.remove(&id);
                    prop_assert_eq!(t.is_some(), m.is_some());
                }
                OpK::Update(r, v) => {
                    if ids.is_empty() { continue; }
                    let id = ids[r as usize % ids.len()];
                    let t = table.update(RowId(id), vec![Value::Int(v)]).expect("schema ok");
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(id) {
                        prop_assert!(t.is_some());
                        e.insert(v);
                    } else {
                        prop_assert!(t.is_none());
                    }
                }
                OpK::Lookup(v) => {
                    let probed = table.lookup_indexed(&[(0, &Value::Int(v))], None);
                    prop_assert_eq!(probed.is_some(), with_index);
                    let got: Vec<u64> =
                        table.lookup(&[(0, &Value::Int(v))]).iter().map(|(id, _)| id.0).collect();
                    let mut want: Vec<u64> = model
                        .iter()
                        .filter(|(_, &mv)| mv == v)
                        .map(|(&id, _)| id)
                        .collect();
                    let mut got_sorted = got.clone();
                    got_sorted.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(got_sorted, want);
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        // Final scan agrees with the model.
        let mut scanned: Vec<(u64, i64)> = table
            .scan()
            .map(|(id, row)| (id.0, row[0].as_int().expect("int")))
            .collect();
        scanned.sort_unstable();
        let mut expected: Vec<(u64, i64)> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(scanned, expected);
    }
}
