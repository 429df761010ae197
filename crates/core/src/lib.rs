//! # seedb-core — deviation-based visualization recommendation
//!
//! A full reproduction of the SeeDB backend from *"SeeDB: Automatically
//! Generating Query Visualizations"* (Vartak, Madden, Parameswaran,
//! Polyzotis — VLDB 2014 demo). Given an analyst query `Q` selecting a
//! subset `D_Q` of a fact table, SeeDB:
//!
//! 1. enumerates every candidate view `(a, m, f)` — group by dimension
//!    `a`, aggregate measure `m` with function `f` ([`view`]);
//! 2. prunes unpromising views using metadata: low-variance dimensions,
//!    correlated-attribute clusters, rarely-accessed attributes
//!    ([`metadata`], [`pruning`]);
//! 3. rewrites the surviving target/comparison view queries into as few
//!    shared-scan DBMS queries as possible — combined target+comparison,
//!    combined aggregates, combined group-bys via bin packing under a
//!    memory budget — optionally over a sample and in parallel
//!    ([`querygen`], [`optimizer`], [`packing`]);
//! 4. normalizes each view's target and comparison results into
//!    probability distributions and scores the view by their distance
//!    ([`distribution`], [`distance`](mod@distance), [`processor`]);
//! 5. returns the top-k highest-utility views ([`engine`]).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use memdb::{Database, Table, Schema, ColumnDef, DataType, Expr};
//! use seedb_core::{SeeDb, AnalystQuery};
//!
//! // A tiny sales table: Laserwave sales skew east, the rest west.
//! let schema = Schema::new(vec![
//!     ColumnDef::dimension("region", DataType::Str),
//!     ColumnDef::dimension("product", DataType::Str),
//!     ColumnDef::measure("amount", DataType::Float64),
//! ]).unwrap();
//! let mut sales = Table::new("sales", schema);
//! for i in 0..200 {
//!     let laser = i % 4 == 0;
//!     // Laserwave sells mostly east; other products mostly west.
//!     let east = if laser { i % 20 != 0 } else { i % 4 == 1 };
//!     sales.push_row(vec![
//!         if east { "east" } else { "west" }.into(),
//!         if laser { "Laserwave" } else { "Other" }.into(),
//!         (10.0 + (i % 7) as f64).into(),
//!     ]).unwrap();
//! }
//! let db = Arc::new(Database::new());
//! db.register(sales);
//!
//! let seedb = SeeDb::with_defaults(db);
//! let rec = seedb
//!     .recommend(&AnalystQuery::new("sales", Some(Expr::col("product").eq("Laserwave"))))
//!     .unwrap();
//! // The planted deviation surfaces at the top of the ranking.
//! assert!(rec.views[0].utility > 0.2);
//! assert!(rec.views.iter().any(|v| v.spec.dimension == "region"));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod distance;
pub mod distribution;
pub mod engine;
pub mod explain;
pub mod interact;
pub mod live;
pub mod metadata;
pub mod optimizer;
pub mod packing;
pub mod phased;
pub mod processor;
pub mod pruning;
pub mod querygen;
pub mod service;
pub mod view;

pub use config::{
    default_workers, ExecutionStrategy, PhasedParams, SeeDbConfig, ServiceConfig, TelemetryConfig,
};
pub use distance::{distance, Metric};
pub use distribution::{AlignedPair, Distribution};
pub use engine::{PhaseTimings, Recommendation, SeeDb};
pub use explain::{ExplainOp, ExplainReport};
pub use interact::{drill_down, roll_up};
pub use live::{RecomputeReason, RefreshConfig, RefreshDecision, RefreshMode};
pub use metadata::{AccessTracker, Metadata, MetadataCollector};
pub use optimizer::{
    ExecutionPlan, Extract, GroupByCombining, OptimizerConfig, PlannedQuery, ValueSource,
};
pub use phased::{
    confidence_halfwidth, run_phased, run_phased_with_group_counts, EarlyPrune, PhasedConfig,
    PhasedOutcome,
};
pub use processor::{top_k, Processor, ViewResult};
pub use pruning::{prune, PruneOutcome, PruneReason, PrunedView, PruningConfig};
pub use querygen::{comparison_query, target_query, AnalystQuery, Side};
pub use service::{CacheStats, Service, Session};
pub use view::{enumerate_views, view_space_size, FunctionSet, ViewSpec};
