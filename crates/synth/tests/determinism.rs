//! Every generator is a pure function of its arguments: the same seed
//! gives the same dataset fingerprint, and another seed another one.

use flaml_data::Dataset;
use flaml_synth::{
    binary_suite, blobs, checkerboard, friedman1, friedman2, friedman3, hyperplane, imbalanced,
    multiclass_suite, multiplicative, piecewise, plane, regression_suite, rings,
    selectivity_dataset, ClassSpec, DriftStream, SuiteScale, TableDistribution,
};

/// Every seeded generator at a small size, as one dataset list.
fn generate(seed: u64) -> Vec<(&'static str, Dataset)> {
    let spec = ClassSpec {
        n: 200,
        categorical_features: 2,
        missing_rate: 0.05,
        label_noise: 0.1,
        seed,
        ..ClassSpec::default()
    };
    let selectivity = selectivity_dataset("sel", TableDistribution::Power, 2, 200, 40, 20, seed);
    let stream = DriftStream::new(seed);
    vec![
        ("blobs", blobs(3, 2, 0.5, spec)),
        ("checkerboard", checkerboard(3, spec)),
        ("hyperplane", hyperplane(3, 0.1, spec)),
        ("rings", rings(2, spec)),
        ("imbalanced", imbalanced(0.1, spec)),
        ("friedman1", friedman1(100, 6, 0.1, seed)),
        ("friedman2", friedman2(100, 0.1, seed)),
        ("friedman3", friedman3(100, 0.1, seed)),
        ("plane", plane(100, 3, 0.1, seed)),
        ("piecewise", piecewise(100, 3, 0.1, seed)),
        ("multiplicative", multiplicative(100, 3, 0.1, seed)),
        ("selectivity_train", selectivity.train),
        ("selectivity_test", selectivity.test),
        ("stream_chunk_0", stream.chunk(0)),
        // A chunk of a later segment, after the concept has shifted.
        ("stream_chunk_9", stream.chunk(9)),
    ]
}

fn fingerprints(data: &[(&'static str, Dataset)]) -> Vec<(&'static str, u64)> {
    data.iter()
        .map(|(name, d)| (*name, d.fingerprint()))
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_fingerprint() {
    let first = fingerprints(&generate(7));
    assert_eq!(first, fingerprints(&generate(7)));
    for ((name, a), (_, b)) in first.iter().zip(fingerprints(&generate(8))) {
        assert_ne!(*a, b, "{name} ignores its seed");
    }
}

#[test]
fn the_suites_are_fixed_lists() {
    for suite in [binary_suite, multiclass_suite, regression_suite] {
        let a: Vec<u64> = suite(SuiteScale::Small)
            .iter()
            .map(Dataset::fingerprint)
            .collect();
        let b: Vec<u64> = suite(SuiteScale::Small)
            .iter()
            .map(Dataset::fingerprint)
            .collect();
        assert_eq!(a, b);
    }
}
