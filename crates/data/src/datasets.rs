//! Schema-faithful synthetic analogues of the paper's demo datasets.
//!
//! The paper demos SeeDB on four datasets: the Tableau *Store Orders*
//! (superstore) data, an FEC *Election Contribution* dataset, a *Medical*
//! (MIMIC-II-like) dataset, and synthetic data. The first three are not
//! redistributable/available offline, so each generator here mimics the
//! published schema and the statistical structure that drives SeeDB:
//! skewed categorical dimensions, correlated attribute pairs (state ↔
//! region, category ↔ sub-category, candidate ↔ party), and a *planted,
//! documented deviation* reachable by a suggested analyst query — so
//! "known trends" exist to re-identify, exactly as demo Scenario 1
//! requires.

use memdb::{ColumnDef, DataType, Schema, Semantic, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distributions::Numeric;

/// A generated demo dataset with its suggested analyst query and the
/// ground-truth deviating dimensions that query should surface.
#[derive(Debug)]
pub struct Dataset {
    /// The fact table.
    pub table: Table,
    /// A suggested analyst query (`SELECT * FROM ... WHERE ...`) whose
    /// subset carries the planted deviations.
    pub query_sql: String,
    /// Dimensions that genuinely deviate under that query (ground truth
    /// for recall experiments). The filter attribute itself is excluded.
    pub ground_truth: Vec<String>,
    /// One-line description for the demo UI.
    pub description: &'static str,
}

fn pick<'a>(rng: &mut StdRng, options: &[(&'a str, f64)]) -> &'a str {
    let total: f64 = options.iter().map(|(_, w)| w).sum();
    let mut u = rng.gen::<f64>() * total;
    for (name, w) in options {
        if u < *w {
            return name;
        }
        u -= w;
    }
    options.last().expect("non-empty options").0
}

/// The Store Orders (superstore-like) dataset.
///
/// Planted trend: the **"Laserwave Oven"** product (the paper's running
/// example) sells overwhelmingly in the East region — and therefore in
/// Eastern states, since `state` determines `region` — and ships
/// disproportionately `Second Class`, while overall sales skew West and
/// `Standard Class`. Querying `product = 'Laserwave Oven'` should surface
/// `region`/`state` and `ship_mode` views.
pub fn store_orders(rows: usize, seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        ColumnDef::dimension("region", DataType::Str).with_semantic(Semantic::Geography),
        ColumnDef::dimension("state", DataType::Str).with_semantic(Semantic::Geography),
        ColumnDef::dimension("category", DataType::Str),
        ColumnDef::dimension("sub_category", DataType::Str),
        ColumnDef::dimension("ship_mode", DataType::Str),
        ColumnDef::dimension("segment", DataType::Str),
        ColumnDef::dimension("product", DataType::Str),
        ColumnDef::measure("sales", DataType::Float64),
        ColumnDef::measure("quantity", DataType::Float64),
        ColumnDef::measure("discount", DataType::Float64),
        ColumnDef::measure("profit", DataType::Float64),
        ColumnDef::ignored("order_id", DataType::Int64),
    ])
    .unwrap();
    let mut t = Table::with_capacity("store_orders", schema, rows);
    let mut rng = StdRng::seed_from_u64(seed);

    // state determines region (correlated pair for pruning to find).
    const STATES: &[(&str, &str)] = &[
        ("Massachusetts", "East"),
        ("New York", "East"),
        ("Pennsylvania", "East"),
        ("Connecticut", "East"),
        ("Washington", "West"),
        ("California", "West"),
        ("Oregon", "West"),
        ("Arizona", "West"),
        ("Texas", "Central"),
        ("Illinois", "Central"),
        ("Ohio", "Central"),
        ("Florida", "South"),
        ("Georgia", "South"),
        ("Virginia", "South"),
    ];
    const EAST_STATES: &[usize] = &[0, 1, 2, 3];
    const SUBCATS: &[(&str, &str)] = &[
        ("Phones", "Technology"),
        ("Machines", "Technology"),
        ("Accessories", "Technology"),
        ("Chairs", "Furniture"),
        ("Tables", "Furniture"),
        ("Bookcases", "Furniture"),
        ("Paper", "Office Supplies"),
        ("Binders", "Office Supplies"),
        ("Storage", "Office Supplies"),
    ];

    let sales_dist = Numeric::Exponential { mean: 220.0 };
    let profit_dist = Numeric::Normal {
        mean: 28.0,
        std: 60.0,
    };

    for i in 0..rows as i64 {
        let laser = rng.gen::<f64>() < 0.08;
        let product = if laser {
            "Laserwave Oven"
        } else {
            pick(
                &mut rng,
                &[
                    ("Saberwave Oven", 1.0),
                    ("Canon Copier", 1.5),
                    ("Logitech Keyboard", 2.0),
                    ("HON Desk Chair", 1.5),
                    ("Xerox Paper", 3.0),
                    ("Avery Binder", 2.5),
                ],
            )
        };
        // Planted: Laserwave skews hard to Eastern states & Second Class.
        let state_idx = if laser && rng.gen::<f64>() < 0.85 {
            EAST_STATES[rng.gen_range(0..EAST_STATES.len())]
        } else {
            // Overall skew toward the West.
            let w = rng.gen::<f64>();
            if w < 0.40 {
                4 + rng.gen_range(0..4usize) // West
            } else {
                rng.gen_range(0..STATES.len())
            }
        };
        let (state, region) = STATES[state_idx];
        let ship_mode = if laser && rng.gen::<f64>() < 0.7 {
            "Second Class"
        } else {
            pick(
                &mut rng,
                &[
                    ("Standard Class", 6.0),
                    ("Second Class", 2.0),
                    ("First Class", 1.5),
                    ("Same Day", 0.5),
                ],
            )
        };
        let (sub_category, category) = SUBCATS[rng.gen_range(0..SUBCATS.len())];
        let segment = pick(
            &mut rng,
            &[("Consumer", 5.0), ("Corporate", 3.0), ("Home Office", 2.0)],
        );
        let sales = sales_dist.sample(&mut rng).max(5.0);
        let quantity = rng.gen_range(1..=14) as f64;
        let discount = [0.0, 0.0, 0.0, 0.1, 0.2, 0.3][rng.gen_range(0..6usize)];
        let profit = profit_dist.sample(&mut rng);
        t.push_row(vec![
            region.into(),
            state.into(),
            category.into(),
            sub_category.into(),
            ship_mode.into(),
            segment.into(),
            product.into(),
            Value::Float(sales),
            Value::Float(quantity),
            Value::Float(discount),
            Value::Float(profit),
            Value::Int(i),
        ])
        .unwrap();
    }

    Dataset {
        table: t,
        query_sql: "SELECT * FROM store_orders WHERE product = 'Laserwave Oven'".to_string(),
        ground_truth: vec![
            "region".to_string(),
            "state".to_string(),
            "ship_mode".to_string(),
        ],
        description: "Superstore-like business-intelligence data; the Laserwave Oven \
                      sells overwhelmingly in the East and ships Second Class",
    }
}

/// The Election Contribution (FEC-like) dataset.
///
/// Planted trend: contributions to **"A. Stark"** come disproportionately
/// from `Retired` and `Educator` occupations and small `amount`s, while
/// the overall pool skews `Attorney`/`Executive` with larger amounts.
/// `party` is determined by `candidate`.
pub fn election_contributions(rows: usize, seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        ColumnDef::dimension("candidate", DataType::Str),
        ColumnDef::dimension("party", DataType::Str),
        ColumnDef::dimension("contributor_state", DataType::Str).with_semantic(Semantic::Geography),
        ColumnDef::dimension("occupation", DataType::Str),
        ColumnDef::dimension("amount_bucket", DataType::Str).with_semantic(Semantic::Ordinal),
        ColumnDef::measure("amount", DataType::Float64),
        ColumnDef::ignored("contribution_id", DataType::Int64),
    ])
    .unwrap();
    let mut t = Table::with_capacity("election", schema, rows);
    let mut rng = StdRng::seed_from_u64(seed);

    const CANDIDATES: &[(&str, &str, f64)] = &[
        ("A. Stark", "Independent", 1.5),
        ("B. Lannister", "Gold", 3.0),
        ("C. Targaryen", "Fire", 2.5),
        ("D. Baratheon", "Gold", 1.5),
        ("E. Tyrell", "Fire", 1.5),
    ];
    const STATES: &[&str] = &[
        "CA", "NY", "TX", "FL", "MA", "WA", "IL", "PA", "OH", "GA", "VA", "NC",
    ];

    for i in 0..rows as i64 {
        let c = {
            let total: f64 = CANDIDATES.iter().map(|(_, _, w)| w).sum();
            let mut u = rng.gen::<f64>() * total;
            let mut chosen = CANDIDATES[0];
            for &cand in CANDIDATES {
                if u < cand.2 {
                    chosen = cand;
                    break;
                }
                u -= cand.2;
            }
            chosen
        };
        let (candidate, party, _) = c;
        let stark = candidate == "A. Stark";
        let occupation = if stark && rng.gen::<f64>() < 0.72 {
            pick(&mut rng, &[("Retired", 5.0), ("Educator", 3.0)])
        } else {
            pick(
                &mut rng,
                &[
                    ("Attorney", 4.0),
                    ("Executive", 3.5),
                    ("Physician", 2.5),
                    ("Engineer", 2.0),
                    ("Retired", 1.5),
                    ("Educator", 1.0),
                    ("Homemaker", 1.0),
                ],
            )
        };
        let state = STATES[if rng.gen::<f64>() < 0.5 {
            rng.gen_range(0..4) // big states dominate everywhere
        } else {
            rng.gen_range(0..STATES.len())
        }];
        let amount = if stark {
            Numeric::Exponential { mean: 55.0 }.sample(&mut rng) + 5.0
        } else {
            Numeric::Exponential { mean: 480.0 }.sample(&mut rng) + 25.0
        };
        let amount_bucket = match amount {
            a if a < 50.0 => "<$50",
            a if a < 200.0 => "$50-200",
            a if a < 1000.0 => "$200-1k",
            _ => ">$1k",
        };
        t.push_row(vec![
            candidate.into(),
            party.into(),
            state.into(),
            occupation.into(),
            amount_bucket.into(),
            Value::Float(amount),
            Value::Int(i),
        ])
        .unwrap();
    }

    Dataset {
        table: t,
        query_sql: "SELECT * FROM election WHERE candidate = 'A. Stark'".to_string(),
        ground_truth: vec!["occupation".to_string(), "amount_bucket".to_string()],
        description: "FEC-like campaign-finance data; A. Stark's contributions come \
                      from retirees and educators in small amounts",
    }
}

/// The Medical (MIMIC-II-like) dataset.
///
/// Planted trend: **cardiac** admissions concentrate in the `CCU` care
/// unit and in older age buckets, with elevated heart rate and longer
/// stays, unlike the overall population.
pub fn medical(rows: usize, seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        ColumnDef::dimension("diagnosis_group", DataType::Str),
        ColumnDef::dimension("care_unit", DataType::Str),
        ColumnDef::dimension("age_bucket", DataType::Str).with_semantic(Semantic::Ordinal),
        ColumnDef::dimension("gender", DataType::Str),
        ColumnDef::dimension("insurance", DataType::Str),
        ColumnDef::dimension("admission_type", DataType::Str),
        ColumnDef::measure("los_days", DataType::Float64),
        ColumnDef::measure("heart_rate", DataType::Float64),
        ColumnDef::measure("lab_score", DataType::Float64),
        ColumnDef::ignored("hadm_id", DataType::Int64),
    ])
    .unwrap();
    let mut t = Table::with_capacity("medical", schema, rows);
    let mut rng = StdRng::seed_from_u64(seed);

    for i in 0..rows as i64 {
        let cardiac = rng.gen::<f64>() < 0.15;
        let diagnosis_group = if cardiac {
            "cardiac"
        } else {
            pick(
                &mut rng,
                &[
                    ("respiratory", 2.5),
                    ("sepsis", 2.0),
                    ("trauma", 1.8),
                    ("neuro", 1.5),
                    ("renal", 1.2),
                    ("gi", 1.0),
                ],
            )
        };
        let care_unit = if cardiac && rng.gen::<f64>() < 0.75 {
            "CCU"
        } else {
            pick(
                &mut rng,
                &[("MICU", 4.0), ("SICU", 2.5), ("CCU", 1.0), ("TSICU", 1.5)],
            )
        };
        let age_bucket = if cardiac && rng.gen::<f64>() < 0.7 {
            pick(&mut rng, &[("65-80", 4.0), ("80+", 3.0)])
        } else {
            pick(
                &mut rng,
                &[
                    ("18-35", 2.0),
                    ("35-50", 3.0),
                    ("50-65", 3.5),
                    ("65-80", 2.5),
                    ("80+", 1.0),
                ],
            )
        };
        let gender = pick(&mut rng, &[("M", 5.3), ("F", 4.7)]);
        let insurance = pick(
            &mut rng,
            &[
                ("Medicare", 4.0),
                ("Private", 3.5),
                ("Medicaid", 1.5),
                ("Self Pay", 0.5),
            ],
        );
        let admission_type = pick(
            &mut rng,
            &[("Emergency", 6.0), ("Elective", 2.5), ("Urgent", 1.5)],
        );
        let los = Numeric::Exponential {
            mean: if cardiac { 7.5 } else { 4.0 },
        }
        .sample(&mut rng)
            + 0.5;
        let hr = Numeric::Normal {
            mean: if cardiac { 96.0 } else { 82.0 },
            std: 12.0,
        }
        .sample(&mut rng);
        let lab = Numeric::Normal {
            mean: 50.0,
            std: 10.0,
        }
        .sample(&mut rng);
        t.push_row(vec![
            diagnosis_group.into(),
            care_unit.into(),
            age_bucket.into(),
            gender.into(),
            insurance.into(),
            admission_type.into(),
            Value::Float(los),
            Value::Float(hr),
            Value::Float(lab),
            Value::Int(i),
        ])
        .unwrap();
    }

    Dataset {
        table: t,
        query_sql: "SELECT * FROM medical WHERE diagnosis_group = 'cardiac'".to_string(),
        ground_truth: vec!["care_unit".to_string(), "age_bucket".to_string()],
        description: "MIMIC-like clinical admissions; cardiac admissions concentrate \
                      in the CCU and in older patients",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_orders_shape_and_determinism() {
        let d = store_orders(2000, 1);
        assert_eq!(d.table.num_rows(), 2000);
        assert_eq!(d.table.schema().dimensions().len(), 7);
        assert_eq!(d.table.schema().measures().len(), 4);
        let d2 = store_orders(2000, 1);
        assert_eq!(d.table.row(77), d2.table.row(77));
    }

    #[test]
    fn store_orders_state_determines_region() {
        let d = store_orders(3000, 2);
        let v = memdb::cramers_v(
            d.table.column("state").unwrap(),
            d.table.column("region").unwrap(),
        )
        .unwrap();
        assert!(v > 0.99, "state→region should be functional, got {v}");
    }

    #[test]
    fn store_orders_laserwave_skews_east() {
        let d = store_orders(20_000, 3);
        let product = d.table.column("product").unwrap();
        let region = d.table.column("region").unwrap();
        let (mut east_laser, mut laser, mut east_all) = (0.0, 0.0, 0.0);
        let n = d.table.num_rows() as f64;
        for i in 0..d.table.num_rows() {
            let is_laser = product.get(i).as_str() == Some("Laserwave Oven");
            let is_east = region.get(i).as_str() == Some("East");
            if is_laser {
                laser += 1.0;
                if is_east {
                    east_laser += 1.0;
                }
            }
            if is_east {
                east_all += 1.0;
            }
        }
        assert!(laser > 500.0);
        assert!(east_laser / laser > 0.7);
        assert!(east_all / n < 0.5);
    }

    #[test]
    fn election_stark_occupations_deviate() {
        let d = election_contributions(20_000, 4);
        let cand = d.table.column("candidate").unwrap();
        let occ = d.table.column("occupation").unwrap();
        let (mut retired_stark, mut stark, mut retired_all) = (0.0, 0.0, 0.0);
        for i in 0..d.table.num_rows() {
            let is_stark = cand.get(i).as_str() == Some("A. Stark");
            let is_retired = occ.get(i).as_str() == Some("Retired");
            if is_stark {
                stark += 1.0;
                if is_retired {
                    retired_stark += 1.0;
                }
            }
            if is_retired {
                retired_all += 1.0;
            }
        }
        assert!(stark > 1000.0);
        assert!(retired_stark / stark > 0.3);
        assert!(retired_all / 20_000.0 < 0.25);
    }

    #[test]
    fn election_party_derived_from_candidate() {
        let d = election_contributions(5_000, 5);
        let v = memdb::cramers_v(
            d.table.column("candidate").unwrap(),
            d.table.column("party").unwrap(),
        )
        .unwrap();
        assert!(v > 0.99);
    }

    #[test]
    fn medical_cardiac_trends() {
        let d = medical(20_000, 6);
        let dg = d.table.column("diagnosis_group").unwrap();
        let cu = d.table.column("care_unit").unwrap();
        let hr = d.table.column("heart_rate").unwrap();
        let (mut ccu_card, mut card, mut hr_card, mut hr_other, mut other) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for i in 0..d.table.num_rows() {
            let cardiac = dg.get(i).as_str() == Some("cardiac");
            if cardiac {
                card += 1.0;
                hr_card += hr.f64_at(i).unwrap();
                if cu.get(i).as_str() == Some("CCU") {
                    ccu_card += 1.0;
                }
            } else {
                other += 1.0;
                hr_other += hr.f64_at(i).unwrap();
            }
        }
        assert!(ccu_card / card > 0.6);
        assert!(hr_card / card - hr_other / other > 10.0);
    }

    #[test]
    fn suggested_queries_parse() {
        for d in [
            store_orders(100, 1),
            election_contributions(100, 1),
            medical(100, 1),
        ] {
            let sel = memdb::parse_selection(&d.query_sql).unwrap();
            assert_eq!(sel.table, d.table.name());
            assert!(sel.filter.is_some());
            assert!(!d.ground_truth.is_empty());
        }
    }
}
