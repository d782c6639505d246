//! `paper_hybrid`: the hybrid rows of Tables 2 and 3.
//!
//! One pass: for both cohorts (Pima R and Sylhet) at 2,000 bits, build the
//! hypervector feature matrix once, then fit every model family on the
//! stratified training split and predict the test split. After the pass, single patients from
//! the Pima R test split are screened with the fitted logistic regression
//! (encode one row, then predict).

use std::time::Instant;

use hyperfex::experiments::{hv_features, Datasets};
use hyperfex::models::ModelBudget;
use hyperfex::prelude::*;
use hyperfex_data::split::{stratified_split, SplitFractions};

use crate::run::{Ctx, Round, Workload};

/// Hypervector dimension: the repository's default experiment width. At
/// the paper's 10,000 bits one pass takes 27 s on two cores with the
/// paper's ensemble budget and 9 s with the smallest, too long to repeat
/// the pass several times within one run.
const DIM: usize = 2_000;
/// Training share of the stratified split.
const TRAIN: f64 = 0.7;
/// Ensemble size and epoch budget: the repository's quick budget (20
/// trees or rounds per ensemble) and a fixed 5 epochs for the network.
const BUDGET: ModelBudget = ModelBudget {
    ensemble_scale: 0.2,
    nn_max_epochs: 5,
};
/// Single-patient queries after each pass.
const QUERIES_PER_ROUND: usize = 200;

/// A model family and the span names of its fit and predict calls.
struct Family {
    kind: ModelKind,
    fit: &'static str,
    predict: &'static str,
}

const fn family(kind: ModelKind, fit: &'static str, predict: &'static str) -> Family {
    Family { kind, fit, predict }
}

/// The nine classical families plus the sequential network.
const FAMILIES: [Family; 10] = [
    family(
        ModelKind::LogisticRegression,
        "ml.logreg.fit",
        "ml.logreg.predict",
    ),
    family(ModelKind::Sgd, "ml.sgd.fit", "ml.sgd.predict"),
    family(ModelKind::Svc, "ml.svc.fit", "ml.svc.predict"),
    family(ModelKind::Knn, "ml.knn.fit", "ml.knn.predict"),
    family(ModelKind::DecisionTree, "ml.tree.fit", "ml.tree.predict"),
    family(
        ModelKind::RandomForest,
        "ml.forest.fit",
        "ml.forest.predict",
    ),
    family(ModelKind::XgBoost, "ml.xgboost.fit", "ml.xgboost.predict"),
    family(ModelKind::Lgbm, "ml.lgbm.fit", "ml.lgbm.predict"),
    family(
        ModelKind::CatBoost,
        "ml.catboost.fit",
        "ml.catboost.predict",
    ),
    family(ModelKind::SequentialNn, "ml.nn.fit", "ml.nn.predict"),
];

/// The paper's models, except that the two iterative fits whose cost
/// dominates and follows their convergence run a fixed count instead: the
/// network without early stopping, the logistic regression without its
/// gradient tolerance (all 300 iterations). Otherwise one seed's data would
/// converge sooner than another's and `pass_s` would measure that.
fn model(kind: ModelKind, seed: u64) -> Box<dyn Estimator> {
    match kind {
        ModelKind::LogisticRegression => {
            Box::new(LogisticRegression::new(LogisticRegressionParams {
                tol: 0.0,
                ..LogisticRegressionParams::default()
            }))
        }
        ModelKind::SequentialNn => Box::new(SequentialNn::new(SequentialNnParams {
            seed,
            max_epochs: BUDGET.nn_max_epochs,
            patience: usize::MAX,
            ..SequentialNnParams::default()
        })),
        other => make_model(other, seed, &BUDGET),
    }
}

struct Cohort {
    table: Table,
    train: Vec<usize>,
    test: Vec<usize>,
}

pub struct PaperHybrid {
    seed: u64,
    cohorts: [Cohort; 2],
    /// Extractor matching `hv_features` on the first cohort, for queries.
    extractor: HdcFeatureExtractor,
    /// The first cohort's logistic regression from the latest pass.
    screen: Option<Box<dyn Estimator>>,
    next_query: usize,
}

impl Workload for PaperHybrid {
    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let datasets = ctx
            .tracer
            .leaf("data.generate", || Datasets::generate(seed))
            .map_err(|e| format!("generate: {e}"))?;
        let cohort = |table: Table| -> Result<Cohort, String> {
            let split = stratified_split(&table, SplitFractions::train_test(TRAIN), seed)
                .map_err(|e| format!("split: {e}"))?;
            Ok(Cohort {
                table,
                train: split.train,
                test: split.test,
            })
        };
        let cohorts = [cohort(datasets.pima_r)?, cohort(datasets.sylhet)?];
        let mut extractor = HdcFeatureExtractor::new(Dim::new(DIM), seed);
        extractor
            .fit(&cohorts[0].table, None)
            .map_err(|e| format!("extractor fit: {e}"))?;
        Ok(Self {
            seed,
            cohorts,
            extractor,
            screen: None,
            next_query: 0,
        })
    }

    fn round(&mut self, ctx: &mut Ctx) -> Round {
        let start = Instant::now();
        let mut accuracies = Vec::new();
        for (c, cohort) in self.cohorts.iter().enumerate() {
            let features = ctx.tracer.leaf("core.hv_features", || {
                hv_features(&cohort.table, Dim::new(DIM), self.seed)
            });
            let Some(x) = ctx.checks.ok("hv_features", features) else {
                continue;
            };
            let (x_train, x_test) = (x.select_rows(&cohort.train), x.select_rows(&cohort.test));
            let labels = cohort.table.labels();
            let y_train: Vec<usize> = cohort.train.iter().map(|&r| labels[r]).collect();
            let y_test: Vec<usize> = cohort.test.iter().map(|&r| labels[r]).collect();
            for f in &FAMILIES {
                let mut m = model(f.kind, self.seed);
                let fitted = ctx.tracer.leaf(f.fit, || m.fit(&x_train, &y_train));
                if ctx.checks.ok(f.fit, fitted).is_none() {
                    continue;
                }
                let predicted = ctx.tracer.leaf(f.predict, || m.predict(&x_test));
                if let Some(p) = ctx.checks.ok(f.predict, predicted) {
                    ctx.checks
                        .check(p.len() == y_test.len() && p.iter().all(|&l| l < 2), || {
                            format!("{}: predictions are not valid labels", f.fit)
                        });
                    let correct = p.iter().zip(&y_test).filter(|(a, b)| a == b).count();
                    accuracies.push(correct as f64 / y_test.len().max(1) as f64);
                }
                if c == 0 && f.kind == ModelKind::LogisticRegression {
                    self.screen = Some(m);
                }
            }
        }
        let pass_s = start.elapsed().as_secs_f64();

        let cohort = &self.cohorts[0];
        for _ in 0..QUERIES_PER_ROUND {
            let row = cohort.test[self.next_query % cohort.test.len()];
            self.next_query += 1;
            let t = Instant::now();
            let hv = ctx.tracer.leaf("hdc.encoding.encode_one", || {
                self.extractor.transform(&cohort.table, Some(&[row]))
            });
            let features = hv.and_then(|hv| {
                ctx.tracer
                    .leaf("core.to_matrix", || HdcFeatureExtractor::to_matrix(&hv))
            });
            let predicted = features.map_err(|e| e.to_string()).and_then(|x| {
                let model = self.screen.as_ref().ok_or("no fitted model")?;
                ctx.tracer
                    .leaf("ml.logreg.predict", || model.predict(&x))
                    .map_err(|e| e.to_string())
            });
            ctx.query_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Some(p) = ctx.checks.ok("single-patient query", predicted) {
                ctx.checks.check(p.len() == 1 && p[0] < 2, || {
                    format!("query on row {row} gave {p:?}")
                });
            }
        }

        Round {
            pass_s,
            accuracy: accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64,
        }
    }
}
