//! The per-sensor model bank: Baseline-1 and Baseline-2 classifiers.
//!
//! "Baseline-1 consists of the original DNNs ... (without any pruning).
//! Baseline-2 uses state of the art pruning techniques ... to prune the
//! DNNs of Baseline-1 to fit the average harvested power budget. ...
//! Origin uses the DNNs of Baseline-2 for the classification tasks"
//! (Section IV-C).
//!
//! The bank is generic over the NN kernel scalar (`ModelBank<f64>` by
//! default, `ModelBank<f32>` for the narrow compute path); raw features,
//! confusion matrices and confidence weights stay `f64` either way. The
//! per-location classifiers are independent — each draws its own seeded
//! RNG streams — so training fans out over [`parallel_map`] without
//! changing a single bit of any trained model.

use crate::confidence::ConfidenceMatrix;
use crate::error::CoreError;
use crate::parallel::parallel_map;
use crate::rank::RankTable;
use origin_nn::{
    prune_to_energy, ConfusionMatrix, InferenceEnergyModel, Scalar, SensorClassifier, Trainer,
};
use origin_sensors::{DatasetSpec, HarDataset};
use origin_telemetry::StageTimings;
use origin_types::{ActivitySet, Energy, SensorLocation};

/// Which classifier variant an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelVariant {
    /// The original unpruned networks (Baseline-1).
    Unpruned,
    /// The energy-aware-pruned networks (Baseline-2 and all EH policies).
    Pruned,
}

/// Everything one location's training produces, in location order.
type LocationOutcome<S> = (
    SensorClassifier<S>,
    SensorClassifier<S>,
    ConfusionMatrix,
    ConfusionMatrix,
    Vec<(Vec<f64>, usize)>,
    StageTimings,
);

/// Trained unpruned + pruned classifiers for every sensor location, with
/// their validation confusion matrices and derived tables.
///
/// The confidence weights are computed once, from the pruned models'
/// held-out predictions, when training finishes: they do not depend on
/// the moving-average rate, which [`ModelBank::confidence_matrix`] only
/// stores.
#[derive(Debug, Clone)]
pub struct ModelBank<S: Scalar = f64> {
    spec: DatasetSpec,
    activities: ActivitySet,
    energy_model: InferenceEnergyModel,
    budget: Energy,
    unpruned: Vec<SensorClassifier<S>>,
    pruned: Vec<SensorClassifier<S>>,
    unpruned_cm: Vec<ConfusionMatrix>,
    pruned_cm: Vec<ConfusionMatrix>,
    confidence: ConfidenceMatrix,
    rank: RankTable,
}

impl<S: Scalar> ModelBank<S> {
    /// Default per-inference pruning budget, µJ. Matches
    /// [`InferenceEnergyModel::budget_from_power`] applied to the default
    /// WiFi office trace (≈40 µW mean) over a 500 ms window with the
    /// default slack.
    pub const DEFAULT_BUDGET_UJ: f64 = 80.0;

    /// Hidden-layer widths per location — "three different smaller DNNs
    /// that work on their individual data" (Section IV-B).
    #[must_use]
    pub fn hidden_for(location: SensorLocation) -> &'static [usize] {
        match location {
            SensorLocation::Chest => &[18],
            SensorLocation::LeftAnkle => &[24],
            SensorLocation::RightWrist => &[16],
        }
    }

    /// Trains the full bank with the default pruning budget.
    ///
    /// # Errors
    ///
    /// Propagates training and pruning failures.
    pub fn train(spec: &DatasetSpec, seed: u64) -> Result<Self, CoreError> {
        Self::train_with_budget(
            spec,
            seed,
            Energy::from_microjoules(Self::DEFAULT_BUDGET_UJ),
        )
    }

    /// [`ModelBank::train`] with the per-location fits fanned out over
    /// `threads` workers ([`parallel_map`] semantics: `0` = all cores).
    /// Every location's SGD epochs stay sequential inside one worker, so
    /// the trained bank is bitwise identical at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates training and pruning failures.
    pub fn train_parallel(
        spec: &DatasetSpec,
        seed: u64,
        threads: usize,
    ) -> Result<Self, CoreError> {
        Self::train_instrumented_parallel(
            spec,
            seed,
            Energy::from_microjoules(Self::DEFAULT_BUDGET_UJ),
            threads,
            &mut StageTimings::new(),
        )
    }

    /// Trains the full bank, pruning Baseline-2 to `budget` per inference.
    ///
    /// # Errors
    ///
    /// Propagates training failures and [`origin_nn::NnError::BudgetUnreachable`]
    /// for budgets below the static energy floor.
    pub fn train_with_budget(
        spec: &DatasetSpec,
        seed: u64,
        budget: Energy,
    ) -> Result<Self, CoreError> {
        Self::train_instrumented(spec, seed, budget, &mut StageTimings::new())
    }

    /// [`ModelBank::train_with_budget`] with kernel-level stage timing:
    /// accumulates the wall-clock cost of SGD fitting (`nn_fit`),
    /// energy-aware pruning + fine-tuning (`nn_prune`) and held-out
    /// evaluation (`nn_eval`) into `timings` across all sensor locations.
    /// Timing never changes what is trained — results are bitwise
    /// identical to the untimed path.
    ///
    /// # Errors
    ///
    /// Propagates training failures and [`origin_nn::NnError::BudgetUnreachable`]
    /// for budgets below the static energy floor.
    pub fn train_instrumented(
        spec: &DatasetSpec,
        seed: u64,
        budget: Energy,
        timings: &mut StageTimings,
    ) -> Result<Self, CoreError> {
        Self::train_instrumented_parallel(spec, seed, budget, 1, timings)
    }

    /// [`ModelBank::train_instrumented`] with the per-location work fanned
    /// out over `threads` workers. Each worker records its stage costs
    /// into a private [`StageTimings`]; the per-location timings merge
    /// into `timings` in location order after the join, so stage keys
    /// appear in the same order as the serial path.
    ///
    /// # Errors
    ///
    /// Propagates training failures and [`origin_nn::NnError::BudgetUnreachable`]
    /// for budgets below the static energy floor.
    pub fn train_instrumented_parallel(
        spec: &DatasetSpec,
        seed: u64,
        budget: Energy,
        threads: usize,
        timings: &mut StageTimings,
    ) -> Result<Self, CoreError> {
        let dataset = HarDataset::generate(spec, seed);
        let energy_model = InferenceEnergyModel::default();
        // Label smoothing keeps the softmax calibrated so its variance
        // carries real confidence signal (Section III-C's metric).
        let trainer = Trainer::new()
            .with_epochs(140)
            .with_seed(seed)
            .with_label_smoothing(0.1)?;

        // Each location's training is self-contained: its RNG streams
        // derive from (seed, location) and nothing is shared mutably, so
        // the fan-out cannot change what any worker computes.
        let outcomes: Vec<Result<LocationOutcome<S>, CoreError>> =
            parallel_map(threads, &SensorLocation::ALL, |_, &location| {
                let mut local = StageTimings::new();
                let sensor = dataset.sensor(location);
                let train: Vec<(Vec<f64>, usize)> = sensor
                    .train
                    .iter()
                    .map(|s| (s.features.clone(), s.dense_label))
                    .collect();
                let test: Vec<(Vec<f64>, usize)> = sensor
                    .test
                    .iter()
                    .map(|s| (s.features.clone(), s.dense_label))
                    .collect();

                let full = local.time("nn_fit", || {
                    SensorClassifier::train(
                        Self::hidden_for(location),
                        &train,
                        spec.activities.clone(),
                        &trainer,
                        seed ^ (location.index() as u64 + 1).wrapping_mul(0x9E37_79B9),
                    )
                })?;
                let unpruned_cm = local.time("nn_eval", || full.evaluate(&test))?;

                // Baseline-2: energy-aware pruning with brief fine-tuning
                // rounds (short on purpose — the accuracy drop is the point).
                let mut lean = full.clone();
                let norm_train = lean.normalize_data(&train);
                local.time("nn_prune", || {
                    prune_to_energy(
                        lean.mlp_mut(),
                        &energy_model,
                        budget,
                        &norm_train,
                        &trainer,
                        0.15,
                        1,
                    )
                })?;
                let pruned_cm = local.time("nn_eval", || lean.evaluate(&test))?;

                Ok((full, lean, unpruned_cm, pruned_cm, test, local))
            });

        let mut unpruned = Vec::with_capacity(SensorLocation::COUNT);
        let mut pruned = Vec::with_capacity(SensorLocation::COUNT);
        let mut unpruned_cm = Vec::with_capacity(SensorLocation::COUNT);
        let mut pruned_cm = Vec::with_capacity(SensorLocation::COUNT);
        let mut validation = Vec::with_capacity(SensorLocation::COUNT);
        for outcome in outcomes {
            let (full, lean, ucm, pcm, test, local) = outcome?;
            for (name, elapsed) in local.iter() {
                timings.record(name, elapsed);
            }
            unpruned.push(full);
            pruned.push(lean);
            unpruned_cm.push(ucm);
            pruned_cm.push(pcm);
            validation.push(test);
        }
        let confidence = ConfidenceMatrix::from_validation(
            &pruned,
            &validation,
            ConfidenceMatrix::DEFAULT_ALPHA,
        );

        let rank = RankTable::from_validation(spec.activities.clone(), &pruned_cm);
        Ok(Self {
            spec: spec.clone(),
            activities: spec.activities.clone(),
            energy_model,
            budget,
            unpruned,
            pruned,
            unpruned_cm,
            pruned_cm,
            confidence,
            rank,
        })
    }

    /// The dataset spec the bank was trained from.
    #[must_use]
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The class set.
    #[must_use]
    pub fn activities(&self) -> &ActivitySet {
        &self.activities
    }

    /// The energy model costs are predicted with.
    #[must_use]
    pub fn energy_model(&self) -> &InferenceEnergyModel {
        &self.energy_model
    }

    /// The pruning budget Baseline-2 was fitted to.
    #[must_use]
    pub fn budget(&self) -> Energy {
        self.budget
    }

    /// The classifier for `location` in the requested variant.
    #[must_use]
    pub fn classifier(
        &self,
        variant: ModelVariant,
        location: SensorLocation,
    ) -> &SensorClassifier<S> {
        match variant {
            ModelVariant::Unpruned => &self.unpruned[location.index()],
            ModelVariant::Pruned => &self.pruned[location.index()],
        }
    }

    /// Validation confusion matrix for `location` in the requested
    /// variant.
    #[must_use]
    pub fn validation_confusion(
        &self,
        variant: ModelVariant,
        location: SensorLocation,
    ) -> &ConfusionMatrix {
        match variant {
            ModelVariant::Unpruned => &self.unpruned_cm[location.index()],
            ModelVariant::Pruned => &self.pruned_cm[location.index()],
        }
    }

    /// Predicted per-inference energy for `location` in the requested
    /// variant.
    #[must_use]
    pub fn inference_energy(&self, variant: ModelVariant, location: SensorLocation) -> Energy {
        self.classifier(variant, location)
            .inference_energy(&self.energy_model)
    }

    /// The AAS rank table, built once at training from the *deployed*
    /// (pruned) models' validation accuracy.
    #[must_use]
    pub fn rank_table(&self) -> &RankTable {
        &self.rank
    }

    /// The initial confidence matrix, from the pruned models' validation
    /// softmax variance (Section III-C), with moving-average rate `alpha`.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` ∉ `(0, 1]`.
    #[must_use]
    pub fn confidence_matrix(&self, alpha: f64) -> ConfidenceMatrix {
        self.confidence.clone().with_alpha(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec::mhealth_like().with_windows(12, 8)
    }

    #[test]
    fn bank_trains_both_variants() {
        let bank = ModelBank::<f64>::train(&small_spec(), 7).unwrap();
        for loc in SensorLocation::ALL {
            let full = bank.inference_energy(ModelVariant::Unpruned, loc);
            let lean = bank.inference_energy(ModelVariant::Pruned, loc);
            assert!(lean < full, "{loc}: pruning must reduce energy");
            assert!(lean <= bank.budget(), "{loc}: pruned model over budget");
            assert!(bank.classifier(ModelVariant::Pruned, loc).mlp().sparsity() > 0.3);
        }
    }

    #[test]
    fn validation_matrices_are_populated() {
        let bank = ModelBank::<f64>::train(&small_spec(), 8).unwrap();
        for loc in SensorLocation::ALL {
            for variant in [ModelVariant::Unpruned, ModelVariant::Pruned] {
                let cm = bank.validation_confusion(variant, loc);
                assert_eq!(cm.total(), 8 * 6);
                assert!(cm.accuracy().unwrap() > 0.3, "{loc} degenerate accuracy");
            }
        }
    }

    #[test]
    fn derived_tables_are_consistent() {
        let bank = ModelBank::<f64>::train(&small_spec(), 9).unwrap();
        let rank = bank.rank_table();
        assert_eq!(rank.node_count(), 3);
        assert_eq!(rank.activities(), bank.activities());
        // The table cached at training is the one the pruned models'
        // validation matrices give.
        let pruned: Vec<ConfusionMatrix> = SensorLocation::ALL
            .iter()
            .map(|&loc| bank.validation_confusion(ModelVariant::Pruned, loc).clone())
            .collect();
        assert_eq!(
            rank,
            &RankTable::from_validation(bank.activities().clone(), &pruned)
        );
        let cm = bank.confidence_matrix(0.1);
        assert_eq!(cm.node_count(), 3);
        assert_eq!(cm.activities(), bank.activities());
    }

    /// The cached weights equal `from_validation` over the regenerated
    /// held-out set, at any rate.
    #[test]
    fn confidence_matrix_equals_a_fresh_validation_pass() {
        let spec = small_spec();
        let seed = 10;
        let bank = ModelBank::<f64>::train(&spec, seed).unwrap();
        let dataset = HarDataset::generate(&spec, seed);
        let validation: Vec<Vec<(Vec<f64>, usize)>> = SensorLocation::ALL
            .iter()
            .map(|&loc| {
                dataset
                    .sensor(loc)
                    .test
                    .iter()
                    .map(|s| (s.features.clone(), s.dense_label))
                    .collect()
            })
            .collect();
        let pruned: Vec<SensorClassifier<f64>> = SensorLocation::ALL
            .iter()
            .map(|&loc| bank.classifier(ModelVariant::Pruned, loc).clone())
            .collect();
        for alpha in [0.05, 0.1, 1.0] {
            assert_eq!(
                bank.confidence_matrix(alpha),
                ConfidenceMatrix::from_validation(&pruned, &validation, alpha),
                "alpha = {alpha}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "moving-average rate")]
    fn confidence_matrix_rejects_a_zero_rate() {
        let bank = ModelBank::<f64>::train(&small_spec(), 10).unwrap();
        let _ = bank.confidence_matrix(0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let a = ModelBank::<f64>::train(&small_spec(), 11).unwrap();
        let b = ModelBank::<f64>::train(&small_spec(), 11).unwrap();
        for loc in SensorLocation::ALL {
            assert_eq!(
                a.classifier(ModelVariant::Pruned, loc).mlp(),
                b.classifier(ModelVariant::Pruned, loc).mlp()
            );
        }
    }

    /// The parallel-training satellite's pin: fanning the per-location
    /// fits over workers must not change a single trained bit, at either
    /// precision.
    #[test]
    fn parallel_training_is_bitwise_identical() {
        fn check<S: Scalar>() {
            let serial = ModelBank::<S>::train(&small_spec(), 13).unwrap();
            let wide = ModelBank::<S>::train_parallel(&small_spec(), 13, 3).unwrap();
            for loc in SensorLocation::ALL {
                for variant in [ModelVariant::Unpruned, ModelVariant::Pruned] {
                    assert_eq!(
                        serial.classifier(variant, loc).mlp(),
                        wide.classifier(variant, loc).mlp(),
                        "{loc}: parallel training diverged at {}",
                        S::DTYPE
                    );
                    assert_eq!(
                        serial.validation_confusion(variant, loc),
                        wide.validation_confusion(variant, loc)
                    );
                }
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn parallel_training_merges_stage_timings() {
        let mut timings = StageTimings::new();
        let _ = ModelBank::<f64>::train_instrumented_parallel(
            &small_spec(),
            14,
            Energy::from_microjoules(ModelBank::<f64>::DEFAULT_BUDGET_UJ),
            3,
            &mut timings,
        )
        .unwrap();
        let keys: Vec<&str> = timings.iter().map(|(n, _)| n).collect();
        assert_eq!(keys, ["nn_fit", "nn_eval", "nn_prune"]);
    }

    #[test]
    fn f32_bank_trains_and_stays_under_budget() {
        let bank = ModelBank::<f32>::train(&small_spec(), 7).unwrap();
        for loc in SensorLocation::ALL {
            let lean = bank.inference_energy(ModelVariant::Pruned, loc);
            assert!(lean <= bank.budget(), "{loc}: f32 pruned model over budget");
            let cm = bank.validation_confusion(ModelVariant::Pruned, loc);
            assert!(
                cm.accuracy().unwrap() > 0.3,
                "{loc} degenerate f32 accuracy"
            );
        }
    }

    #[test]
    fn hidden_sizes_differ_per_location() {
        let sizes: Vec<&[usize]> = SensorLocation::ALL
            .iter()
            .map(|&l| ModelBank::<f64>::hidden_for(l))
            .collect();
        assert_ne!(sizes[0], sizes[1]);
        assert_ne!(sizes[1], sizes[2]);
    }
}
