//! Application catalog: the benign apps and malware families whose behaviour
//! the DVFS simulator reproduces.
//!
//! The original dataset of Chawla et al. was collected from real Android
//! applications and malware samples. Here every application is a behavioural
//! model — a [`WorkloadModel`] phase structure plus the governor it runs
//! under. Applications are divided into *known* families (available for
//! training) and *unknown* families (held out entirely, acting as the paper's
//! zero-day proxies). Unknown families deliberately occupy utilisation/period
//! regimes that no known family covers, so their signatures are
//! out-of-distribution.

use crate::governor::GovernorKind;
use crate::workload::{Phase, WorkloadModel};
use hmd_data::{AppId, Label, SampleMeta};
use serde::{Deserialize, Serialize};

/// A simulated application (benign app or malware family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Stable identifier used in dataset metadata.
    pub id: AppId,
    /// Human-readable name.
    pub name: String,
    /// Ground-truth class.
    pub label: Label,
    /// Whether the application belongs to the known (trainable) bucket.
    pub known: bool,
    /// Behavioural model producing CPU utilisation traces.
    pub workload: WorkloadModel,
    /// Governor the device runs while this application executes.
    pub governor: GovernorKind,
}

impl AppProfile {
    fn new(
        id: u32,
        name: &str,
        label: Label,
        known: bool,
        workload: WorkloadModel,
        governor: GovernorKind,
    ) -> AppProfile {
        AppProfile {
            id: AppId(id),
            name: name.to_string(),
            label,
            known,
            workload,
            governor,
        }
    }

    /// The metadata of a sample this application produced.
    pub(crate) fn sample_meta(&self) -> SampleMeta {
        if self.known {
            SampleMeta::known(self.id)
        } else {
            SampleMeta::unknown(self.id)
        }
    }
}

/// The full catalog of simulated applications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppCatalog {
    apps: Vec<AppProfile>,
}

impl AppCatalog {
    /// The default catalog: 10 known benign apps, 8 known malware families,
    /// 3 unknown benign apps and 3 unknown malware families.
    #[allow(clippy::vec_init_then_push)]
    pub fn standard() -> AppCatalog {
        let mut apps = Vec::new();

        // -------- known benign applications --------
        apps.push(AppProfile::new(
            1,
            "web_browser",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.55, 8.0).with_noise(0.10).with_spikes(0.05),
                Phase::new(0.12, 25.0).with_noise(0.05),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            2,
            "video_player",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.42, 6.0).with_noise(0.04),
                Phase::new(0.30, 6.0).with_noise(0.04),
            ]),
            GovernorKind::Schedutil,
        ));
        apps.push(AppProfile::new(
            3,
            "music_streaming",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.18, 40.0).with_noise(0.04),
                Phase::new(0.35, 5.0).with_noise(0.06),
            ]),
            GovernorKind::Conservative,
        ));
        apps.push(AppProfile::new(
            4,
            "social_media",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.48, 10.0).with_noise(0.12).with_spikes(0.03),
                Phase::new(0.08, 20.0).with_noise(0.03),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            5,
            "email_client",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.10, 50.0).with_noise(0.03),
                Phase::new(0.40, 4.0).with_noise(0.08),
            ]),
            GovernorKind::Conservative,
        ));
        apps.push(AppProfile::new(
            6,
            "photo_editor",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.72, 12.0).with_noise(0.08),
                Phase::new(0.20, 18.0).with_noise(0.05),
            ]),
            GovernorKind::Schedutil,
        ));
        apps.push(AppProfile::new(
            7,
            "navigation",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.38, 30.0).with_noise(0.06),
                Phase::new(0.55, 8.0).with_noise(0.08),
            ]),
            GovernorKind::Schedutil,
        ));
        apps.push(AppProfile::new(
            8,
            "casual_game",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.65, 25.0).with_noise(0.07).with_spikes(0.02),
                Phase::new(0.25, 10.0).with_noise(0.05),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            9,
            "messenger",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.15, 35.0).with_noise(0.05).with_spikes(0.04),
                Phase::new(0.45, 5.0).with_noise(0.08),
            ]),
            GovernorKind::Conservative,
        ));
        apps.push(AppProfile::new(
            10,
            "camera",
            Label::Benign,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.60, 15.0).with_noise(0.05),
                Phase::new(0.33, 12.0).with_noise(0.05),
            ]),
            GovernorKind::Schedutil,
        ));

        // -------- known malware families --------
        apps.push(AppProfile::new(
            21,
            "cryptominer",
            Label::Malware,
            true,
            WorkloadModel::new(vec![Phase::new(0.97, 200.0).with_noise(0.02)]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            22,
            "ransomware",
            Label::Malware,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.92, 40.0).with_noise(0.04),
                Phase::new(0.75, 15.0).with_noise(0.06),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            23,
            "spyware_keylogger",
            Label::Malware,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.06, 60.0).with_noise(0.02).with_spikes(0.10),
                Phase::new(0.28, 3.0).with_noise(0.04),
            ]),
            GovernorKind::Conservative,
        ));
        apps.push(AppProfile::new(
            24,
            "ddos_bot",
            Label::Malware,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.85, 10.0).with_noise(0.05),
                Phase::new(0.05, 10.0).with_noise(0.02),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            25,
            "sms_fraud",
            Label::Malware,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.22, 4.0).with_noise(0.03).with_spikes(0.15),
                Phase::new(0.04, 45.0).with_noise(0.02),
            ]),
            GovernorKind::Conservative,
        ));
        apps.push(AppProfile::new(
            26,
            "adware_clicker",
            Label::Malware,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.50, 3.0).with_noise(0.04).with_spikes(0.20),
                Phase::new(0.10, 6.0).with_noise(0.03),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            27,
            "banking_trojan",
            Label::Malware,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.35, 5.0).with_noise(0.04).with_spikes(0.08),
                Phase::new(0.80, 8.0).with_noise(0.05),
            ]),
            GovernorKind::Schedutil,
        ));
        apps.push(AppProfile::new(
            28,
            "data_exfiltrator",
            Label::Malware,
            true,
            WorkloadModel::new(vec![
                Phase::new(0.68, 60.0).with_noise(0.03),
                Phase::new(0.15, 40.0).with_noise(0.03).with_spikes(0.06),
            ]),
            GovernorKind::Conservative,
        ));

        // -------- unknown (held-out, zero-day proxy) applications --------
        // Every unknown application is a behavioural *hybrid*: it mixes the
        // phase structure of a known benign family with the phase structure
        // of a known malware family (plus governor changes and new phase
        // periods). Their signatures therefore fall in the sparsely trained
        // region between the known clusters: some bootstrap replicates call
        // them benign, others malware, and the vote entropy is high — exactly
        // the epistemic-uncertainty regime the paper uses to flag zero-days.
        apps.push(AppProfile::new(
            41,
            "unknown_video_conference", // video_player blended with ddos_bot bursts
            Label::Benign,
            false,
            WorkloadModel::new(vec![
                Phase::new(0.42, 7.0).with_noise(0.05),
                Phase::new(0.85, 9.0).with_noise(0.05),
                Phase::new(0.05, 9.0).with_noise(0.02),
            ]),
            GovernorKind::Schedutil,
        ));
        apps.push(AppProfile::new(
            42,
            "unknown_ar_game", // casual_game blended with sustained ransomware-like load
            Label::Benign,
            false,
            WorkloadModel::new(vec![
                Phase::new(0.65, 22.0).with_noise(0.07).with_spikes(0.02),
                Phase::new(0.90, 35.0).with_noise(0.05),
                Phase::new(0.25, 9.0).with_noise(0.05),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            43,
            "unknown_file_sync", // music_streaming blended with sms_fraud spike pattern
            Label::Benign,
            false,
            WorkloadModel::new(vec![
                Phase::new(0.18, 38.0).with_noise(0.04).with_spikes(0.14),
                Phase::new(0.23, 4.5).with_noise(0.03).with_spikes(0.12),
            ]),
            GovernorKind::Conservative,
        ));
        apps.push(AppProfile::new(
            44,
            "unknown_gpu_cryptojacker", // cryptominer blended with web_browser idling
            Label::Malware,
            false,
            WorkloadModel::new(vec![
                Phase::new(0.96, 70.0).with_noise(0.03),
                Phase::new(0.54, 8.5).with_noise(0.10).with_spikes(0.05),
                Phase::new(0.12, 24.0).with_noise(0.05),
            ]),
            GovernorKind::Ondemand,
        ));
        apps.push(AppProfile::new(
            45,
            "unknown_wiper", // ransomware bursts blended with email_client idle
            Label::Malware,
            false,
            WorkloadModel::new(vec![
                Phase::new(0.91, 37.0).with_noise(0.04),
                Phase::new(0.10, 48.0).with_noise(0.03),
                Phase::new(0.41, 4.5).with_noise(0.08),
            ]),
            GovernorKind::Conservative,
        ));
        apps.push(AppProfile::new(
            46,
            "unknown_stealth_beacon", // spyware_keylogger blended with navigation cruising
            Label::Malware,
            false,
            WorkloadModel::new(vec![
                Phase::new(0.07, 55.0).with_noise(0.02).with_spikes(0.09),
                Phase::new(0.37, 28.0).with_noise(0.06),
                Phase::new(0.55, 7.5).with_noise(0.08),
            ]),
            GovernorKind::Schedutil,
        ));

        AppCatalog { apps }
    }

    /// All applications.
    pub fn apps(&self) -> &[AppProfile] {
        &self.apps
    }

    /// Applications in the known (trainable) bucket.
    pub fn known_apps(&self) -> Vec<&AppProfile> {
        self.apps.iter().filter(|a| a.known).collect()
    }

    /// Applications in the unknown (held-out) bucket.
    pub fn unknown_apps(&self) -> Vec<&AppProfile> {
        self.apps.iter().filter(|a| !a.known).collect()
    }

    /// Looks up an application by id.
    pub fn get(&self, id: AppId) -> Option<&AppProfile> {
        self.apps.iter().find(|a| a.id == id)
    }

    /// Number of applications in the catalog.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// `true` when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

impl Default for AppCatalog {
    fn default() -> Self {
        AppCatalog::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_both_classes_in_both_buckets() {
        let catalog = AppCatalog::standard();
        let known = catalog.known_apps();
        let unknown = catalog.unknown_apps();
        assert!(known.iter().any(|a| a.label == Label::Benign));
        assert!(known.iter().any(|a| a.label == Label::Malware));
        assert!(unknown.iter().any(|a| a.label == Label::Benign));
        assert!(unknown.iter().any(|a| a.label == Label::Malware));
        assert_eq!(known.len() + unknown.len(), catalog.len());
    }

    #[test]
    fn app_ids_are_unique() {
        let catalog = AppCatalog::standard();
        let mut ids: Vec<u32> = catalog.apps().iter().map(|a| a.id.0).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate application ids");
    }

    #[test]
    fn lookup_by_id_works() {
        let catalog = AppCatalog::standard();
        let miner = catalog.get(AppId(21)).expect("cryptominer exists");
        assert_eq!(miner.name, "cryptominer");
        assert_eq!(miner.label, Label::Malware);
        assert!(catalog.get(AppId(999)).is_none());
    }

    #[test]
    fn known_bucket_is_larger_than_unknown() {
        let catalog = AppCatalog::standard();
        assert!(catalog.known_apps().len() > catalog.unknown_apps().len());
    }
}
