//! Saving and loading trained HW-PR-NAS models.
//!
//! Training a surrogate costs GPU-hours in the paper's setting (Table II);
//! a downstream user searches many times with one trained model, so the
//! model must round-trip through disk. The format is a single JSON
//! document: the [`ModelConfig`], the target metadata, and every
//! parameter matrix in registration order (registration order is a pure
//! function of the config, so rebuilding the architecture and overwriting
//! the weights reproduces the exact model).

use crate::config::ModelConfig;
use crate::data::EncodingCache;
use crate::model::HwPrNas;
use crate::{CoreError, Result};
use hwpr_hwmodel::Platform;
use hwpr_nasbench::{graph, tokens, Architecture, Dataset};
use hwpr_nn::Params;
use hwpr_tensor::Matrix;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// On-disk representation of a trained model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Network sizes (drives the rebuild).
    pub model_config: ModelConfig,
    /// Platforms with latency heads, in head order.
    pub platforms: Vec<Platform>,
    /// Latency normalisation per head.
    pub max_latency: Vec<f64>,
    /// Dataset the model was trained for.
    pub dataset: Dataset,
    /// Graph padding size of the encoding cache.
    pub cache_nodes: usize,
    /// Token padding length of the encoding cache.
    pub cache_seq_len: usize,
    /// The accuracy branch's fitted AF normaliser.
    pub accuracy_normalizer: Option<hwpr_nasbench::features::FeatureNormalizer>,
    /// The latency branch's fitted AF normaliser.
    pub latency_normalizer: Option<hwpr_nasbench::features::FeatureNormalizer>,
    /// Every parameter matrix, in registration order.
    pub parameters: Vec<Matrix>,
}

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// A registered save observer (see [`observe_saves`]).
type SaveObserver = Arc<dyn Fn(&Path) + Send + Sync>;

static SAVE_OBSERVERS: OnceLock<Mutex<Vec<(u64, SaveObserver)>>> = OnceLock::new();
static NEXT_WATCH_ID: AtomicU64 = AtomicU64::new(1);

fn save_observers() -> &'static Mutex<Vec<(u64, SaveObserver)>> {
    SAVE_OBSERVERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registration handle returned by [`observe_saves`]; dropping it
/// removes the observer.
#[must_use = "dropping the watch immediately unregisters the observer"]
pub struct SaveWatch {
    id: u64,
}

impl std::fmt::Debug for SaveWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaveWatch").field("id", &self.id).finish()
    }
}

impl Drop for SaveWatch {
    fn drop(&mut self) {
        save_observers().lock().retain(|(id, _)| *id != self.id);
    }
}

/// Registers a process-wide observer called (on the saving thread, after
/// the file is fully written) every time [`HwPrNas::save`] succeeds.
///
/// This is the hot-swap hook the serving layer builds on: a model
/// registry watches the path a trainer persists to and republishes the
/// retrained weights the moment they hit disk. Observers receive the
/// path exactly as the saver passed it and must not panic.
pub fn observe_saves(observer: impl Fn(&Path) + Send + Sync + 'static) -> SaveWatch {
    let id = NEXT_WATCH_ID.fetch_add(1, Ordering::Relaxed);
    save_observers().lock().push((id, Arc::new(observer)));
    SaveWatch { id }
}

/// Snapshots and invokes the registered save observers for `path`.
fn notify_saved(path: &Path) {
    // snapshot under the lock, call outside it: an observer is allowed to
    // save another model (republish flows) without deadlocking
    let observers: Vec<SaveObserver> = save_observers()
        .lock()
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .collect();
    for observer in observers {
        observer(path);
    }
}

/// Serialises `value` and writes it to `path` as a single JSON document —
/// the on-disk convention every persisted artifact in the workspace
/// follows (trained models here, search snapshots in `hwpr-search`).
///
/// The write is crash-safe: the document goes to a temporary sibling in
/// the same directory, is synced to disk, and only then renamed over
/// `path`. A crash at any point leaves either the complete old file or
/// the complete new one, never a truncated mix, and a reader that opened
/// the old file keeps reading the old bytes. A file that already exists
/// keeps its permissions. Once the rename has happened the new document
/// is in place, so the directory sync that follows is best effort: its
/// failure is not reported as a failed write.
///
/// # Errors
///
/// Returns [`CoreError::Data`] on serialisation or I/O failure before the
/// rename; `path` is then unchanged.
pub fn write_json_file<T: Serialize>(value: &T, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let json =
        serde_json::to_string(value).map_err(|e| CoreError::Data(format!("serialise: {e}")))?;
    let name = path
        .file_name()
        .ok_or_else(|| CoreError::Data(format!("write {}: not a file path", path.display())))?;
    // unique per process and call, so concurrent saves of one path never
    // share a temporary
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let replace = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        // before any byte lands, so a restricted file's contents never sit
        // in a wider-mode temporary
        if let Ok(old) = std::fs::metadata(path) {
            file.set_permissions(old.permissions())?;
        }
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    replace().map_err(|e| {
        // best effort: the temporary is garbage whatever step failed
        let _ = std::fs::remove_file(&tmp);
        CoreError::Data(format!("write {}: {e}", path.display()))
    })?;
    let _ = sync_parent_dir(path);
    Ok(())
}

/// Makes a rename inside `path`'s directory durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing on this platform.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Reads and parses a JSON document previously written by
/// [`write_json_file`]. Version checking stays with the caller: the
/// document's `version` field means different things per artifact type.
///
/// # Errors
///
/// Returns [`CoreError::Data`] on I/O or parse failure.
pub fn read_json_file<T: Deserialize>(path: impl AsRef<Path>) -> Result<T> {
    let json = std::fs::read_to_string(path.as_ref())
        .map_err(|e| CoreError::Data(format!("read {}: {e}", path.as_ref().display())))?;
    serde_json::from_str(&json).map_err(|e| CoreError::Data(format!("parse: {e}")))
}

/// Rejects a document whose sizes the file itself does not back, before
/// the rebuild. The rebuild takes its weights from the document
/// ([`Params::restoring`]), so what it allocates besides them is sized by
/// the widths, the layer counts and the encoding padding: every width
/// must be a dimension of one of the document's parameters (whose shapes
/// must match their data), every layer must have a parameter of its
/// own, and the padding must fit `seed` and need no more than the
/// widest search space. A forged `gcn_hidden = 2^40` is then an error,
/// not an allocation.
fn check_sizes(saved: &SavedModel, seed: &Architecture) -> Result<()> {
    let bad = |what: String| Err(CoreError::Data(format!("model document: {what}")));
    let mut dims = std::collections::HashSet::new();
    for (i, p) in saved.parameters.iter().enumerate() {
        let (rows, cols) = p.shape();
        if rows.checked_mul(cols) != Some(p.len()) {
            return bad(format!(
                "parameter {i} is {rows}x{cols} but holds {} values",
                p.len()
            ));
        }
        dims.extend([rows, cols]);
    }
    let config = &saved.model_config;
    let widths = [config.gcn_hidden, config.lstm_hidden, config.embed_dim];
    if let Some(w) = widths
        .iter()
        .chain(&config.mlp_hidden)
        .find(|&&w| w == 0 || !dims.contains(&w))
    {
        return bad(format!("width {w} is not a dimension of any parameter"));
    }
    if saved.platforms.len() != saved.max_latency.len() {
        return bad(format!(
            "{} platforms but {} latency scales",
            saved.platforms.len(),
            saved.max_latency.len()
        ));
    }
    // the two encoders' layers, then one MLP per head (accuracy, each
    // platform) with a layer per hidden width plus its output layer
    let layers = (saved.platforms.len() + 1)
        .checked_mul(config.mlp_hidden.len() + 1)
        .and_then(|heads| heads.checked_add(config.gcn_layers))
        .and_then(|n| n.checked_add(config.lstm_layers));
    if config.gcn_layers == 0
        || config.lstm_layers == 0
        || layers.is_none_or(|n| n > saved.parameters.len())
    {
        return bad(format!(
            "layer counts do not fit its {} parameters",
            saved.parameters.len()
        ));
    }
    let nodes = graph::natural_nodes(seed)..=graph::FBNET_NODES;
    let seq_len = tokens::tokens(seed).len()..=tokens::MAX_SEQUENCE_LEN;
    if !nodes.contains(&saved.cache_nodes) || !seq_len.contains(&saved.cache_seq_len) {
        return bad(format!(
            "encoding padding {}x{} outside {nodes:?}x{seq_len:?}",
            saved.cache_nodes, saved.cache_seq_len
        ));
    }
    Ok(())
}

impl HwPrNas {
    /// The model's on-disk form (always at the current
    /// [`FORMAT_VERSION`]).
    fn saved(&self) -> SavedModel {
        let parameters: Vec<Matrix> = self
            .params
            .ids()
            .into_iter()
            .map(|id| self.params.get(id).clone())
            .collect();
        SavedModel {
            version: FORMAT_VERSION,
            model_config: self.model_config.clone(),
            platforms: self.platforms.clone(),
            max_latency: self.max_latency.clone(),
            dataset: self.dataset,
            cache_nodes: self.cache.nodes(),
            cache_seq_len: self.cache.seq_len(),
            accuracy_normalizer: self.accuracy_encoder.normalizer().cloned(),
            latency_normalizer: self.latency_encoder.normalizer().cloned(),
            parameters,
        }
    }

    /// Serialises the model to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] if serialisation fails (cannot happen
    /// for well-formed models).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(&self.saved()).map_err(|e| CoreError::Data(format!("serialise: {e}")))
    }

    /// Writes the model to `path` as JSON and notifies any registered
    /// save observers (see [`observe_saves`]) once the write succeeded.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] on I/O or serialisation failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        write_json_file(&self.saved(), path.as_ref())?;
        notify_saved(path.as_ref());
        Ok(())
    }

    /// Rebuilds a model from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] when the document is malformed, the
    /// version is unsupported, or the parameter shapes disagree with the
    /// rebuilt architecture.
    pub fn from_json(json: &str) -> Result<Self> {
        let saved: SavedModel =
            serde_json::from_str(json).map_err(|e| CoreError::Data(format!("parse: {e}")))?;
        Self::from_saved(saved)
    }

    /// Rebuilds a model from its parsed on-disk form.
    fn from_saved(saved: SavedModel) -> Result<Self> {
        if saved.version != FORMAT_VERSION {
            return Err(CoreError::Data(format!(
                "unsupported model format version {} (expected {FORMAT_VERSION})",
                saved.version
            )));
        }
        // any single architecture suffices to construct the encoders; the
        // fitted normalisers are restored explicitly right after
        let seed_arch = Architecture::nb201_from_index(0).expect("index 0 exists");
        check_sizes(&saved, &seed_arch)?;
        let cache = EncodingCache::new(saved.dataset, saved.cache_nodes, saved.cache_seq_len);
        let mut model = Self::build(
            Params::restoring(saved.parameters),
            &saved.model_config,
            cache,
            &[seed_arch],
            saved.platforms,
            saved.max_latency,
            saved.dataset,
        )?;
        model
            .params
            .finish_restore()
            .map_err(|e| CoreError::Data(format!("model document: {e}")))?;
        if let Some(n) = saved.accuracy_normalizer {
            model.accuracy_encoder.set_normalizer(n);
        }
        if let Some(n) = saved.latency_normalizer {
            model.latency_encoder.set_normalizer(n);
        }
        Ok(model)
    }

    /// Loads a model previously written by [`HwPrNas::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Data`] on I/O or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_saved(read_json_file(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::data::SurrogateDataset;
    use hwpr_hwmodel::{SimBench, SimBenchConfig};
    use hwpr_nasbench::SearchSpaceId;

    fn trained() -> (HwPrNas, SurrogateDataset) {
        let bench = SimBench::generate(SimBenchConfig {
            space: SearchSpaceId::NasBench201,
            sample_size: Some(40),
            seed: 8,
        });
        let data =
            SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
        let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
        (model, data)
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let (model, data) = trained();
        let archs: Vec<Architecture> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.arch.clone())
            .collect();
        let before = model.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        let json = model.to_json().unwrap();
        let restored = HwPrNas::from_json(&json).unwrap();
        let after = restored.predict_scores(&archs, Platform::EdgeGpu).unwrap();
        for (b, a) in before.iter().zip(&after) {
            assert!(
                (b - a).abs() < 1e-5,
                "prediction drift after round trip: {b} vs {a}"
            );
        }
        assert_eq!(restored.platforms(), model.platforms());
        assert_eq!(restored.dataset(), model.dataset());
    }

    #[test]
    fn save_and_load_via_file() {
        let (model, data) = trained();
        let dir = std::env::temp_dir().join("hwpr_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let restored = HwPrNas::load(&path).unwrap();
        let arch = data.samples()[0].arch.clone();
        assert_eq!(
            model
                .predict_scores(std::slice::from_ref(&arch), Platform::EdgeGpu)
                .unwrap(),
            restored.predict_scores(&[arch], Platform::EdgeGpu).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_replaces_the_file_without_truncating_it_in_place() {
        let dir = std::env::temp_dir().join(format!("hwpr_persist_replace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_json_file(&vec![1u32; 1000], &path).unwrap();
        let old = std::fs::read(&path).unwrap();
        // a reader holding the old file (a loader mid-read) must see the
        // complete old document, not a truncated or rewritten one
        let mut reader = std::fs::File::open(&path).unwrap();
        write_json_file(&vec![2u32; 10], &path).unwrap();
        let mut seen = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut seen).unwrap();
        assert_eq!(seen, old, "an open reader saw the old file change");
        let now: Vec<u32> = read_json_file(&path).unwrap();
        assert_eq!(now, vec![2u32; 10]);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["doc.json"], "temporary files left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn write_keeps_the_permissions_of_the_file_it_replaces() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("hwpr_persist_mode_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_json_file(&vec![1u32; 4], &path).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o600)).unwrap();
        write_json_file(&vec![2u32; 4], &path).unwrap();
        let mode = std::fs::metadata(&path).unwrap().permissions().mode() & 0o777;
        assert_eq!(mode, 0o600, "a restricted file was widened by a save");
        assert_eq!(read_json_file::<Vec<u32>>(&path).unwrap(), vec![2u32; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_wrong_version_and_garbage() {
        let (model, _) = trained();
        let mut json = model.to_json().unwrap();
        json = json.replacen("\"version\":1", "\"version\":99", 1);
        assert!(HwPrNas::from_json(&json).is_err());
        assert!(HwPrNas::from_json("{not json").is_err());
        assert!(HwPrNas::load("/nonexistent/path/model.json").is_err());
    }

    #[test]
    fn save_observers_fire_after_save_and_unregister_on_drop() {
        let (model, _) = trained();
        let dir = std::env::temp_dir().join("hwpr_persist_watch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watched.json");
        let seen = Arc::new(Mutex::new(0usize));
        // other tests in the binary save models concurrently: the
        // observer counts only its own path
        let watch = observe_saves({
            let seen = Arc::clone(&seen);
            move |p: &Path| {
                if p.ends_with("watched.json") {
                    *seen.lock() += 1;
                }
            }
        });
        model.save(&path).unwrap();
        assert_eq!(*seen.lock(), 1, "observer must fire once per save");
        drop(watch);
        model.save(&path).unwrap();
        assert_eq!(*seen.lock(), 1, "a dropped watch must not fire");
        std::fs::remove_file(&path).ok();
    }

    /// A model small enough that its document can be cut at every byte.
    fn micro() -> (HwPrNas, Vec<Architecture>) {
        let (_, data) = trained();
        let config = ModelConfig {
            gcn_hidden: 3,
            gcn_layers: 1,
            lstm_hidden: 2,
            embed_dim: 5,
            mlp_hidden: vec![4],
            ..ModelConfig::tiny()
        };
        let train = TrainConfig {
            epochs: 1,
            fusion_finetune_epochs: 1,
            ..TrainConfig::tiny()
        };
        let (model, _) = HwPrNas::fit(&data, &config, &train).unwrap();
        let archs = data.samples().iter().map(|s| s.arch.clone()).collect();
        (model, archs)
    }

    #[test]
    fn a_model_document_cut_at_any_byte_is_a_typed_error() {
        let (model, archs) = micro();
        let json = model.to_json().unwrap();
        for cut in 0..json.len() {
            // compact JSON: a proper prefix never closes its object
            match HwPrNas::from_json(&json[..cut]) {
                Err(CoreError::Data(_)) => {}
                other => panic!("cut at byte {cut} loaded as {other:?}"),
            }
        }
        let restored = HwPrNas::from_json(&json).unwrap();
        assert_eq!(
            restored.predict_scores(&archs, Platform::EdgeGpu).unwrap(),
            model.predict_scores(&archs, Platform::EdgeGpu).unwrap()
        );
        assert_eq!(
            restored
                .predict_objectives(&archs, Platform::EdgeGpu)
                .unwrap(),
            model.predict_objectives(&archs, Platform::EdgeGpu).unwrap()
        );
    }

    #[test]
    fn a_deeply_nested_document_is_a_typed_error() {
        let (model, _) = micro();
        let json = model.to_json().unwrap();
        // one value nested far past the parser's recursion limit
        let (open, close) = ("[".repeat(200_000), "]".repeat(200_000));
        let hostile = json.replacen("\"version\":1", &format!("\"version\":{open}1{close}"), 1);
        assert_ne!(hostile, json);
        assert!(matches!(
            HwPrNas::from_json(&hostile),
            Err(CoreError::Data(_))
        ));
        let dir = std::env::temp_dir().join(format!("hwpr_persist_nested_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        std::fs::write(&path, &open).unwrap();
        assert!(matches!(
            read_json_file::<Vec<u32>>(&path),
            Err(CoreError::Data(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sizes_the_document_does_not_back_are_rejected_before_building() {
        let (model, _) = micro();
        const HUGE: usize = 1 << 40;
        let forgeries: [fn(&mut SavedModel); 15] = [
            |s| s.model_config.gcn_hidden = HUGE,
            |s| s.model_config.lstm_hidden = HUGE,
            |s| s.model_config.embed_dim = HUGE,
            |s| s.model_config.mlp_hidden = vec![HUGE],
            |s| s.model_config.gcn_layers = HUGE,
            |s| s.model_config.lstm_layers = 0,
            // widths the document backs, in more layers than it holds
            |s| s.model_config.mlp_hidden = vec![4; 1000],
            |s| {
                s.platforms = vec![Platform::EdgeGpu; 1000];
                s.max_latency = vec![1.0; 1000];
            },
            // a width one extra parameter backs: its 2^40-weight GCN layer
            // must come from the document, which does not hold it
            |s| {
                s.parameters.push(Matrix::zeros(1, 1 << 20));
                s.model_config.gcn_hidden = 1 << 20;
                s.model_config.gcn_layers = 2;
            },
            |s| s.cache_nodes = HUGE,
            |s| s.cache_seq_len = HUGE,
            |s| s.max_latency.push(1.0),
            // shapes that disagree with the architecture, a weight short or one
            // too many
            |s| s.parameters.reverse(),
            |s| {
                s.parameters.pop();
            },
            |s| s.parameters.push(Matrix::zeros(1, 1)),
        ];
        for (i, forge) in forgeries.iter().enumerate() {
            let mut saved = model.saved();
            forge(&mut saved);
            let json = serde_json::to_string(&saved).unwrap();
            assert!(
                matches!(HwPrNas::from_json(&json), Err(CoreError::Data(_))),
                "forgery {i} accepted"
            );
        }
        // a parameter whose shape claims more values than it holds
        let json = model.to_json().unwrap();
        let rows = json.find("\"rows\":").unwrap() + "\"rows\":".len();
        let digits = json[rows..].find(',').unwrap();
        let forged = format!("{}{HUGE}{}", &json[..rows], &json[rows + digits..]);
        assert!(matches!(
            HwPrNas::from_json(&forged),
            Err(CoreError::Data(_))
        ));
    }

    #[test]
    fn restored_normalizers_match() {
        let (model, _) = trained();
        let json = model.to_json().unwrap();
        let restored = HwPrNas::from_json(&json).unwrap();
        assert_eq!(
            model.accuracy_encoder.normalizer(),
            restored.accuracy_encoder.normalizer()
        );
        assert_eq!(
            model.latency_encoder.normalizer(),
            restored.latency_encoder.normalizer()
        );
    }
}
