//! The serving evaluator against its oracle. The evaluator walks eight
//! rows at a time through a packed node table; the oracle here is the
//! walk it replaced — one row at a time, node by node through the
//! `CompiledGbdt` / `CompiledForest` slabs, each tree's leaf added in
//! boosting order. Every prediction
//! must match the oracle bit for bit: across learners and tasks, JSON
//! and blob backings (plain, quantized, and a hot-first blob written by
//! an older build), row counts on both sides of every lane-block edge,
//! batch chunks that cut lane blocks apart, edge-valued features,
//! single-leaf and depth-skewed trees, and the registry's served path.

use flaml_blob::{encode_blob, BlobModel, BlobOptions};
use flaml_data::{Dataset, DatasetView, Task};
use flaml_exec::ExecPool;
use flaml_learners::link::{sigmoid, softmax_in_place};
use flaml_learners::{
    fit_meta, goes_left, meta_features, BinMapper, FittedModel, Forest, ForestParams, Gbdt,
    GbdtParams, StackedModel,
};
use flaml_metrics::Pred;
use flaml_serve::{
    BatchEngine, CompiledForest, CompiledGbdt, CompiledLinear, CompiledModel, ModelRegistry,
    Servable,
};

fn bits(p: &Pred) -> Vec<u64> {
    match p {
        Pred::Values(v) => v.iter().map(|x| x.to_bits()).collect(),
        Pred::Probs { p, .. } => p.iter().map(|x| x.to_bits()).collect(),
    }
}

/// One boosted tree, one row: the per-row slab walk.
fn gbdt_leaf(m: &CompiledGbdt, bins: &[Vec<u16>], root: u32, row: usize) -> f64 {
    let mut at = root as usize;
    while !m.is_leaf[at] {
        let bin = bins[m.feature[at] as usize][row];
        at = if u32::from(bin) <= m.threshold[at] {
            m.left[at] as usize
        } else {
            m.right[at] as usize
        };
    }
    m.leaf_value[at]
}

/// One forest tree, one row: the per-row slab walk.
fn forest_leaf(m: &CompiledForest, cols: &[Vec<f64>], root: u32, row: usize) -> usize {
    let mut at = root as usize;
    while !m.is_leaf[at] {
        let x = cols[m.feature[at] as usize][row];
        at = if goes_left(x, m.threshold[at]) {
            m.left[at] as usize
        } else {
            m.right[at] as usize
        };
    }
    at
}

fn columns(data: &DatasetView) -> Vec<Vec<f64>> {
    (0..data.n_features())
        .map(|j| data.column_values(j).collect())
        .collect()
}

fn linear(meta: &CompiledLinear, cols: &[Vec<f64>], n: usize) -> Pred {
    meta.to_model().predict_columns(cols, n)
}

/// What the evaluator must predict for `model` on `data`.
fn oracle(model: &CompiledModel, data: &DatasetView) -> Pred {
    let n = data.n_rows();
    match model {
        CompiledModel::Gbdt(m) => {
            let binned = BinMapper::from_cuts(m.cuts.clone()).transform(data);
            let bins: Vec<Vec<u16>> = (0..binned.n_features())
                .map(|j| binned.column(j).to_vec())
                .collect();
            let k = m.n_groups;
            let mut scores = Vec::with_capacity(n * k);
            for row in 0..n {
                let mut slot = m.init_scores.clone();
                for (t, &root) in m.tree_roots.iter().enumerate() {
                    slot[t % k] += gbdt_leaf(m, &bins, root, row);
                }
                scores.extend(slot);
            }
            match m.task {
                Task::Regression => Pred::from_values(scores),
                Task::Binary => Pred::binary_probs(scores.into_iter().map(sigmoid).collect()),
                Task::MultiClass(k) => {
                    for row in scores.chunks_exact_mut(k) {
                        softmax_in_place(row);
                    }
                    Pred::Probs {
                        n_classes: k,
                        p: scores,
                    }
                }
            }
        }
        CompiledModel::Forest(m) => {
            let cols = columns(data);
            let w = m.leaf_width;
            let mut out = vec![0.0; n * w];
            for row in 0..n {
                for &root in &m.tree_roots {
                    let leaf = forest_leaf(m, &cols, root, row);
                    for c in 0..w {
                        out[row * w + c] += m.values[leaf * w + c];
                    }
                }
            }
            let n_trees = m.tree_roots.len() as f64;
            let out: Vec<f64> = out.into_iter().map(|x| x / n_trees).collect();
            match m.task {
                Task::Regression => Pred::from_values(out),
                _ => Pred::Probs {
                    n_classes: w,
                    p: out,
                },
            }
        }
        CompiledModel::Linear(m) => linear(m, &columns(data), n),
        CompiledModel::Stacked(m) => {
            let mut cols = Vec::new();
            for member in &m.members {
                match oracle(member, data) {
                    Pred::Values(v) => cols.push(v),
                    Pred::Probs { n_classes, p } => {
                        for c in 0..n_classes - 1 {
                            cols.push(p.chunks_exact(n_classes).map(|r| r[c]).collect());
                        }
                    }
                }
            }
            linear(&m.meta, &cols, n)
        }
    }
}

/// Feature values a tree walk is most likely to mishandle.
const EDGES: [f64; 8] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -f64::MIN_POSITIVE / 8.0,
    1e-310,
];

/// Training data for `task`, and a 300-row request pool from the same
/// distribution with an edge value in roughly one cell in eleven.
fn data(task: Task) -> (Dataset, Dataset) {
    let (n, pool) = (240, 300);
    let x = |i: usize, j: usize| ((i * (7 + 3 * j) + 5 * j) % 29) as f64 * 0.25 - 3.0 + j as f64;
    let cols = |rows: usize, edges: bool| -> Vec<Vec<f64>> {
        (0..4)
            .map(|j| {
                (0..rows)
                    .map(|i| match (edges, (i * 7 + j * 3) % 11) {
                        (true, 0) => EDGES[(i + j) % EDGES.len()],
                        _ => x(i + 1000 * usize::from(edges), j),
                    })
                    .collect()
            })
            .collect()
    };
    let train = cols(n, false);
    let y: Vec<f64> = (0..n)
        .map(|i| {
            let s = train[0][i] + 0.5 * train[1][i] - train[2][i];
            match task {
                Task::Regression => s + train[3][i] * 0.1,
                Task::Binary => f64::from(s > 0.0),
                Task::MultiClass(k) => (s.abs() as usize % k) as f64,
            }
        })
        .collect();
    let train = Dataset::new("oracle", task, train, y).unwrap();
    let requests = Dataset::new(
        "requests",
        Task::Regression,
        cols(pool, true),
        vec![0.0; pool],
    );
    (train, requests.unwrap())
}

/// GBDT, `rf`, `extra_tree` and a stacked ensemble of the first two.
fn roster(train: &Dataset) -> Vec<(&'static str, CompiledModel)> {
    let gbdt_params = GbdtParams {
        n_trees: 20,
        ..GbdtParams::default()
    };
    let gbdt: FittedModel = Gbdt::fit(train, &gbdt_params, 3).unwrap().into();
    let forest = |extra: bool| -> FittedModel {
        let params = ForestParams {
            n_trees: 6,
            extra,
            ..ForestParams::default()
        };
        Forest::fit(train, &params, 3).unwrap().into()
    };
    let (rf, extra) = (forest(false), forest(true));
    let members = vec![gbdt.clone(), rf.clone()];
    let oof = meta_features(&members, train, train.target().to_vec());
    let meta = fit_meta(&oof, 3).unwrap();
    let stacked: FittedModel = StackedModel::new(members, meta, train.task()).into();
    [
        ("gbdt", gbdt),
        ("rf", rf),
        ("extra_tree", extra),
        ("stacked", stacked),
    ]
    .into_iter()
    .map(|(name, m)| (name, CompiledModel::compile(&m).unwrap()))
    .collect()
}

const ROW_COUNTS: [usize; 21] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 96, 128, 256, 257,
];

fn tasks() -> [Task; 3] {
    [Task::Binary, Task::MultiClass(3), Task::Regression]
}

#[test]
fn lane_walk_matches_the_slab_walk_on_every_learner_backing_and_row_count() {
    for task in tasks() {
        let (train, pool) = data(task);
        for (name, compiled) in roster(&train) {
            let json = CompiledModel::from_artifact_str(&compiled.to_artifact_string()).unwrap();
            let plain = BlobModel::from_bytes(&encode_blob(&compiled, BlobOptions::default()));
            let quantized = BlobModel::from_bytes(&encode_blob(&compiled, BlobOptions::tuned()));
            let (plain, quantized) = (plain.unwrap(), quantized.unwrap());
            let backings: [(&str, &dyn Servable); 3] =
                [("json", &json), ("blob", &plain), ("quantized", &quantized)];
            for rows in ROW_COUNTS {
                // Skip the first rows now and then, so blocks do not
                // always start at the pool's first row.
                let request = pool
                    .view()
                    .select(&(rows % 3..rows % 3 + rows).collect::<Vec<_>>());
                for (backing, model) in backings {
                    let ctx = format!("{name} {task:?} {backing} {rows} rows");
                    let want = bits(&oracle(model.parts().0, &request));
                    assert_eq!(bits(&model.serve(&request)), want, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn batch_chunks_that_cut_lane_blocks_apart_match_the_oracle() {
    let pool_workers = ExecPool::new(2);
    for task in tasks() {
        let (train, pool) = data(task);
        let registry = ModelRegistry::new();
        for (name, compiled) in roster(&train) {
            registry.publish(name, compiled);
            let served = registry.get(name).unwrap();
            for rows in [17, 96, 257] {
                let request = pool.view().prefix(rows);
                let want = bits(&oracle(&served.model, &request));
                for chunk in [1, 5, 13] {
                    let engine = BatchEngine::new(&pool_workers, chunk);
                    let ctx = format!("{name} {task:?} {rows} rows in chunks of {chunk}");
                    let got = engine.predict(name, served.as_ref(), &request);
                    assert_eq!(bits(&got), want, "{ctx}: served");
                    let one_shot = engine.predict(name, &served.model, &request);
                    assert_eq!(bits(&one_shot), want, "{ctx}: one-shot");
                }
            }
        }
    }
}

/// A boosted model with a single-leaf tree, a chain that goes left ten
/// times before its last leaf (depth-skewed: most rows leave it early),
/// and a balanced stump, over two features.
fn skewed_gbdt() -> CompiledModel {
    let (mut feature, mut threshold, mut left, mut right) = (vec![0], vec![0], vec![0], vec![0]);
    let (mut leaf_value, mut is_leaf) = (vec![0.75], vec![true]);
    let mut tree_roots = vec![0];
    // Tree 1, the chain: node 1 + 2d is internal, its right child a leaf.
    tree_roots.push(1);
    for d in 0..10u32 {
        let at = 1 + 2 * d;
        feature.extend([d % 2, 0]);
        threshold.extend([3 + d, 0]);
        left.extend([at + 2, 0]);
        right.extend([at + 1, 0]);
        leaf_value.extend([0.0, f64::from(d) * 0.5 - 1.0]);
        is_leaf.extend([false, true]);
    }
    feature.push(0);
    threshold.push(0);
    left.push(0);
    right.push(0);
    leaf_value.push(9.0);
    is_leaf.push(true);
    // Tree 2, a stump.
    let at = feature.len() as u32;
    tree_roots.push(at);
    feature.extend([1, 0, 0]);
    threshold.extend([6, 0, 0]);
    left.extend([at + 1, 0, 0]);
    right.extend([at + 2, 0, 0]);
    leaf_value.extend([0.0, -0.25, 0.25]);
    is_leaf.extend([false, true, true]);
    let cuts = |k: usize| (0..k).map(|c| c as f64 * 0.5 - 3.0).collect::<Vec<f64>>();
    CompiledModel::Gbdt(CompiledGbdt {
        cuts: vec![cuts(14), cuts(9)],
        n_groups: 1,
        init_scores: vec![0.125],
        task: Task::Binary,
        tree_roots,
        feature,
        threshold,
        left,
        right,
        leaf_value,
        is_leaf,
    })
}

/// The same shapes as a two-class forest: a single leaf and a chain
/// that goes right seven times.
fn skewed_forest() -> CompiledModel {
    let mut m = CompiledForest {
        task: Task::Binary,
        n_features: 2,
        leaf_width: 2,
        tree_roots: vec![0, 1],
        feature: vec![0],
        threshold: vec![0.0],
        left: vec![0],
        right: vec![0],
        is_leaf: vec![true],
        values: vec![0.5, 0.5],
    };
    for d in 0..7u32 {
        let at = 1 + 2 * d;
        m.feature.extend([d % 2, 0]);
        m.threshold.extend([f64::from(d) * 0.75 - 3.0, 0.0]);
        m.left.extend([at + 1, 0]);
        m.right.extend([at + 2, 0]);
        m.is_leaf.extend([false, true]);
        let p = f64::from(d) / 8.0;
        m.values.extend([0.0, 0.0, p, 1.0 - p]);
    }
    m.feature.push(0);
    m.threshold.push(0.0);
    m.left.push(0);
    m.right.push(0);
    m.is_leaf.push(true);
    m.values.extend([1.0, 0.0]);
    CompiledModel::Forest(m)
}

#[test]
fn single_leaf_and_depth_skewed_trees_match_the_oracle() {
    let (_, pool) = data(Task::Binary);
    let (cols, n) = (pool.columns()[..2].to_vec(), pool.n_rows());
    let two = Dataset::new("two", Task::Regression, cols, vec![0.0; n]).unwrap();
    for model in [skewed_gbdt(), skewed_forest()] {
        let loaded = CompiledModel::from_artifact_str(&model.to_artifact_string()).unwrap();
        for rows in ROW_COUNTS {
            let request = two.view().prefix(rows);
            let want = bits(&oracle(&loaded, &request));
            assert_eq!(bits(&loaded.predict(&request)), want, "{rows} rows");
        }
    }
}

#[test]
fn a_hot_first_blob_from_an_older_build_predicts_bit_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let blob = BlobModel::open(dir.join("parent_tuned.artifact.blob")).unwrap();
    let json = CompiledModel::load(dir.join("parent_tuned.artifact.json")).unwrap();
    let flags = u32::from_le_bytes(
        std::fs::read(dir.join("parent_tuned.artifact.blob")).unwrap()[16..20]
            .try_into()
            .unwrap(),
    );
    assert_eq!(
        flags & flaml_blob::FLAG_HOT_FIRST,
        flaml_blob::FLAG_HOT_FIRST
    );
    assert!(blob.quantized());
    // The fixture's training features, then the same with edge values.
    let n = 90;
    let mut cols: Vec<Vec<f64>> = vec![
        (0..n).map(|i| f64::from(i % 13)).collect(),
        (0..n).map(|i| f64::from(i % 5) * 0.5 - 1.0).collect(),
        (0..n).map(|i| f64::from((i * 7) % 11) * 0.25).collect(),
    ];
    for (i, col) in cols.iter_mut().enumerate() {
        for (r, x) in col.iter_mut().enumerate().skip(n as usize / 2) {
            if (r + i) % 4 == 0 {
                *x = EDGES[(r + i) % EDGES.len()];
            }
        }
    }
    let data = Dataset::new("fixture", Task::Regression, cols, vec![0.0; n as usize]).unwrap();
    for rows in ROW_COUNTS.into_iter().filter(|&r| r <= n as usize) {
        let request = data.view().prefix(rows);
        let want = bits(&oracle(&json, &request));
        assert_eq!(bits(&json.predict(&request)), want, "json, {rows} rows");
        assert_eq!(
            bits(&blob.predict(&request)),
            want,
            "hot-first blob, {rows} rows"
        );
        assert_eq!(
            bits(&oracle(blob.parts().0, &request)),
            want,
            "blob oracle, {rows} rows"
        );
    }
}

#[test]
fn served_versions_match_one_shot_predicts_across_publish_and_rollback() {
    let (train, pool) = data(Task::MultiClass(3));
    let models = roster(&train);
    let registry = ModelRegistry::new();
    let workers = ExecPool::new(2);
    let engine = BatchEngine::new(&workers, 32);
    let request = pool.view().prefix(96);
    let check = |ctx: &str| {
        let served = registry.get("slot").unwrap();
        let one_shot = bits(&served.model.predict(&request));
        assert_eq!(
            bits(&engine.predict("slot", served.as_ref(), &request)),
            one_shot,
            "{ctx}"
        );
        assert_eq!(bits(&served.serve(&request)), one_shot, "{ctx}: again");
        assert_eq!(
            bits(&oracle(&served.model, &request)),
            one_shot,
            "{ctx}: oracle"
        );
    };
    for (name, model) in &models {
        registry.publish("slot", model.clone());
        check(&format!("after publishing {name}"));
    }
    while registry.rollback("slot").is_some() {
        check("after a rollback");
    }
}
