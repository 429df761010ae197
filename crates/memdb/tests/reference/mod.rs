//! The naive row-at-a-time reference evaluator and its random-table
//! generator — the oracle that shares no code with the engine's scan
//! path. Used by `reference_model.rs` here and, via `#[path]`, by the
//! workspace's `tests/plan_equivalence.rs`.

use std::collections::BTreeMap;

use memdb::{AggFunc, ColumnDef, DataType, Schema, Table, Value};
use proptest::prelude::*;

/// A randomly generated table: 2 string dims (one low-cardinality to hit
/// the dict fast path), 1 int dim, 1 float measure with nulls.
#[derive(Debug, Clone)]
pub struct TestData {
    pub rows: Vec<(Option<&'static str>, &'static str, i64, Option<f64>)>,
}

pub fn data_strategy() -> impl Strategy<Value = TestData> {
    let row = (
        proptest::option::weighted(0.9, proptest::sample::select(vec!["a", "b", "c"])),
        proptest::sample::select(vec!["x", "y", "z", "w", "u"]),
        0i64..4,
        proptest::option::weighted(0.85, -50.0f64..50.0),
    );
    proptest::collection::vec(row, 0..200).prop_map(|rows| TestData { rows })
}

pub fn build_table(data: &TestData) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::dimension("d1", DataType::Str),
        ColumnDef::dimension("d2", DataType::Str),
        ColumnDef::dimension("d3", DataType::Int64),
        ColumnDef::measure("m", DataType::Float64),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    for (d1, d2, d3, m) in &data.rows {
        t.push_row(vec![
            d1.map(Value::from).unwrap_or(Value::Null),
            Value::from(*d2),
            Value::Int(*d3),
            m.map(Value::Float).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    t
}

/// Naive reference: group rows by the rendered key tuple, aggregate with
/// straightforward loops.
pub fn reference_aggregate(
    data: &TestData,
    group_cols: &[usize], // 0=d1, 1=d2, 2=d3
    func: AggFunc,
    filter_d2: Option<&str>,  // per-aggregate predicate: d2 == value
    where_d3_lt: Option<i64>, // scan filter: d3 < value
) -> BTreeMap<Vec<String>, Option<f64>> {
    let mut groups: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for (d1, d2, d3, m) in &data.rows {
        if let Some(limit) = where_d3_lt {
            if *d3 >= limit {
                continue;
            }
        }
        let key: Vec<String> = group_cols
            .iter()
            .map(|c| match c {
                0 => d1.map(|s| s.to_string()).unwrap_or_else(|| "NULL".into()),
                1 => d2.to_string(),
                2 => d3.to_string(),
                _ => unreachable!(),
            })
            .collect();
        counts.entry(key.clone()).or_insert(0);
        groups.entry(key.clone()).or_default();
        let passes = filter_d2.map(|v| *d2 == v).unwrap_or(true);
        if !passes {
            continue;
        }
        match func {
            AggFunc::Count => {
                *counts.get_mut(&key).unwrap() += 1;
            }
            _ => {
                if let Some(v) = m {
                    groups.get_mut(&key).unwrap().push(*v);
                }
            }
        }
    }
    let mut out = BTreeMap::new();
    for (key, vals) in groups {
        let count = counts[&key];
        let v = match func {
            AggFunc::Count => Some(count as f64),
            AggFunc::Sum => (!vals.is_empty()).then(|| vals.iter().sum()),
            AggFunc::Avg => {
                (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
            }
            AggFunc::Min => vals.iter().copied().reduce(f64::min),
            AggFunc::Max => vals.iter().copied().reduce(f64::max),
        };
        out.insert(key, v);
    }
    out
}

pub fn result_to_map(
    result: &memdb::ResultSet,
    num_group_cols: usize,
) -> BTreeMap<Vec<String>, Option<f64>> {
    result
        .rows
        .iter()
        .map(|r| {
            let key: Vec<String> = r[..num_group_cols].iter().map(Value::render).collect();
            let v = match &r[num_group_cols] {
                Value::Null => None,
                Value::Int(i) => Some(*i as f64),
                other => other.as_f64(),
            };
            (key, v)
        })
        .collect()
}

pub fn approx_eq(
    a: &BTreeMap<Vec<String>, Option<f64>>,
    b: &BTreeMap<Vec<String>, Option<f64>>,
) -> Result<(), String> {
    if a.keys().collect::<Vec<_>>() != b.keys().collect::<Vec<_>>() {
        return Err(format!(
            "group keys differ:\n  engine: {:?}\n  reference: {:?}",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ));
    }
    for (k, va) in a {
        let vb = &b[k];
        match (va, vb) {
            (None, None) => {}
            (Some(x), Some(y)) if (x - y).abs() < 1e-9 => {}
            _ => return Err(format!("group {k:?}: engine {va:?} vs reference {vb:?}")),
        }
    }
    Ok(())
}
