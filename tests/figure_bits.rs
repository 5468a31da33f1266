//! Every byte `dck experiments` writes, pinned.
//!
//! One FNV-1a 64 digest per artifact, with the CLI's default seed:
//!
//! - every experiment at `--fast` (60 files);
//! - the eleven closed-form experiments at full size (47 files), so a
//!   change to the fast/full grid choice shows too.
//!
//! Each experiment runs through [`run_experiments`] into its own
//! directory. The test pins the set of file names and each file's
//! digest; a mismatch names the file and prints the new digest.
//! `robustness` takes seconds even in release, so its four pins are an
//! ignored test: `cargo test --release --test figure_bits --
//! --include-ignored` runs all of them.

use dck::experiments::run_experiments;
use std::fs;

/// The default `--seed` of `dck experiments`.
const SEED: u64 = 0x0D0C_5EED;

/// An experiment name and its files' digests, sorted by file name.
type Pins = (&'static str, &'static [(&'static str, u64)]);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Runs one experiment and returns one line per pin that does not hold.
fn mismatches((name, pins): Pins, fast: bool) -> Vec<String> {
    let size = if fast { "fast" } else { "full" };
    let dir = std::env::temp_dir().join(format!(
        "dck-figure-bits-{}-{name}-{size}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    run_experiments(name, &dir, fast, SEED).unwrap_or_else(|e| panic!("{name} ({size}): {e}"));
    let mut files: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let pinned: Vec<&str> = pins.iter().map(|(file, _)| *file).collect();
    let mut bad = Vec::new();
    if files != pinned {
        bad.push(format!(
            "{name} ({size}): wrote {files:?}, pinned {pinned:?}"
        ));
    }
    for &(file, want) in pins {
        if let Ok(bytes) = fs::read(dir.join(file)) {
            let got = fnv1a64(&bytes);
            if got != want {
                bad.push(format!(
                    "{name} ({size}): {file} has digest {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
    bad
}

fn assert_pins(all: &[Pins], fast: bool) {
    let bad: Vec<String> = all.iter().flat_map(|&p| mismatches(p, fast)).collect();
    assert!(
        bad.is_empty(),
        "artifact bytes changed:\n{}",
        bad.join("\n")
    );
}

#[test]
fn fast_artifacts_keep_their_bits() {
    assert_pins(FAST, true);
}

#[test]
fn full_size_closed_form_artifacts_keep_their_bits() {
    assert_pins(FULL, false);
}

#[test]
#[ignore = "seconds in release; CI runs it with --include-ignored"]
fn robustness_artifacts_keep_their_bits() {
    assert_pins(&[ROBUSTNESS_FAST], true);
}

#[test]
fn fnv1a64_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

const FAST: &[Pins] = &[
    (
        "table1",
        &[
            ("table1.csv", 0x824f_f96a_e110_00d6),
            ("table1.json", 0x1c0a_2bdc_04e4_8917),
            ("table1.txt", 0x5e3b_1648_200e_0546),
        ],
    ),
    (
        "fig4",
        &[
            ("fig4.gp", 0xc60c_4104_511e_d0a2),
            ("fig4.json", 0x62b8_4126_4ae5_faea),
            ("fig4_double-bof.csv", 0xb0e2_d8e1_e950_d9a0),
            ("fig4_double-bof.txt", 0xa8bc_3b00_785f_a9a7),
            ("fig4_double-nbl.csv", 0x6ef7_ecd3_ad42_ee83),
            ("fig4_double-nbl.txt", 0xce25_5e9f_38e2_5130),
            ("fig4_triple.csv", 0x88c6_f818_01fd_6a51),
            ("fig4_triple.txt", 0x41eb_d820_431f_8cc4),
        ],
    ),
    (
        "fig5",
        &[
            ("fig5.gp", 0x4e55_7378_d4c1_ab4a),
            ("fig5.json", 0x0e00_35e5_7ad4_4b1c),
            ("fig5_waste_ratio.csv", 0x358f_4e26_3281_a1fa),
        ],
    ),
    (
        "fig6",
        &[
            ("fig6.gp", 0x3014_efa1_3962_2046),
            ("fig6.json", 0xc269_867e_63a1_608c),
            ("fig6_risk.csv", 0x52d1_13cb_9e51_cbdd),
            ("fig6a_preview.txt", 0x9a64_6f68_dc14_3c8e),
            ("fig6b_preview.txt", 0xbeb4_1a93_9e6b_137f),
        ],
    ),
    (
        "fig7",
        &[
            ("fig7.gp", 0xaee7_7ae1_f5d5_6d51),
            ("fig7.json", 0x0992_1269_ef3a_5f29),
            ("fig7_double-bof.csv", 0x854a_c2fe_2538_8b77),
            ("fig7_double-bof.txt", 0x5b59_47b6_09da_1506),
            ("fig7_double-nbl.csv", 0xc142_8417_fc25_1f58),
            ("fig7_double-nbl.txt", 0x7d40_f9c5_592e_655e),
            ("fig7_triple.csv", 0xb6a0_a99b_3c17_773d),
            ("fig7_triple.txt", 0x7042_2b65_2811_d3ce),
        ],
    ),
    (
        "fig8",
        &[
            ("fig8.gp", 0x1db9_4919_9826_5bf2),
            ("fig8.json", 0x4f68_160d_7bb5_1a36),
            ("fig8_waste_ratio.csv", 0x17ed_0328_3501_fece),
        ],
    ),
    (
        "fig9",
        &[
            ("fig9.gp", 0x1dcf_23d2_31d1_aec9),
            ("fig9.json", 0x669e_9b61_32fa_42cf),
            ("fig9_risk.csv", 0x2eff_6857_262c_04ca),
            ("fig9a_preview.txt", 0x470b_153c_578f_b94e),
            ("fig9b_preview.txt", 0x1b9d_bdae_40fe_e8f5),
        ],
    ),
    (
        "period-check",
        &[
            ("period_check.csv", 0x43e0_9c1d_217f_826b),
            ("period_check.json", 0x83ac_059a_20ef_8212),
            ("period_check.txt", 0xf36f_5a58_0fe2_8dcc),
        ],
    ),
    (
        "phi-choice",
        &[
            ("phi_choice.csv", 0x3692_fb76_bfb3_f787),
            ("phi_choice.json", 0x780e_fa62_663a_857f),
            ("phi_choice.txt", 0x8a3f_0e71_d0c0_a542),
        ],
    ),
    (
        "blocking-gain",
        &[
            ("blocking_gain.csv", 0x9c09_5ddc_d713_25c8),
            ("blocking_gain.json", 0xa7c8_1380_03c9_6174),
            ("blocking_gain.txt", 0x979f_11df_4e28_92d4),
        ],
    ),
    (
        "fig5-sim",
        &[
            ("fig5_simulated.csv", 0x85ab_d23d_3c66_1a7e),
            ("fig5_simulated.json", 0x1c15_088d_749c_1071),
        ],
    ),
    (
        "hierarchical",
        &[
            ("hierarchical.csv", 0xf83e_f5cd_2581_c650),
            ("hierarchical.json", 0xe9e7_8e94_13da_7f0d),
            ("hierarchical.txt", 0xc804_1f10_5c85_1519),
        ],
    ),
    (
        "refined",
        &[
            ("refined_model.csv", 0x7cc4_95f1_49d9_c55e),
            ("refined_model.json", 0x1a95_68ee_0f4b_1df4),
            ("refined_model.txt", 0xb311_6143_69f9_e929),
        ],
    ),
    (
        "validate",
        &[
            ("validate.json", 0x5a55_6cb7_4dea_f94f),
            ("validate.txt", 0x32e4_974c_8ec3_8035),
            ("validate_risk.csv", 0x2ec6_282a_cb96_c93a),
            ("validate_waste.csv", 0x2abd_010a_8916_e251),
        ],
    ),
];

const FULL: &[Pins] = &[
    (
        "table1",
        &[
            ("table1.csv", 0x824f_f96a_e110_00d6),
            ("table1.json", 0x1c0a_2bdc_04e4_8917),
            ("table1.txt", 0x5e3b_1648_200e_0546),
        ],
    ),
    (
        "fig4",
        &[
            ("fig4.gp", 0xc60c_4104_511e_d0a2),
            ("fig4.json", 0x632b_8cf0_710d_fcb7),
            ("fig4_double-bof.csv", 0x9796_9776_a4de_bbda),
            ("fig4_double-bof.txt", 0x0053_fc50_20de_ad70),
            ("fig4_double-nbl.csv", 0x95fc_6816_3653_a5fc),
            ("fig4_double-nbl.txt", 0xe65f_a00c_d0ce_a5b3),
            ("fig4_triple.csv", 0xf5a0_99a6_02a3_06d6),
            ("fig4_triple.txt", 0x7002_4185_97cf_b24e),
        ],
    ),
    (
        "fig5",
        &[
            ("fig5.gp", 0x4e55_7378_d4c1_ab4a),
            ("fig5.json", 0xd76b_8cec_28b4_d036),
            ("fig5_waste_ratio.csv", 0xafec_4ca5_d862_15dc),
        ],
    ),
    (
        "fig6",
        &[
            ("fig6.gp", 0x3014_efa1_3962_2046),
            ("fig6.json", 0xfb61_1312_5ca6_7754),
            ("fig6_risk.csv", 0x454c_ac7d_0353_b6d1),
            ("fig6a_preview.txt", 0x2e50_ab75_18ec_5fad),
            ("fig6b_preview.txt", 0x09f1_4c8b_0849_412f),
        ],
    ),
    (
        "fig7",
        &[
            ("fig7.gp", 0xaee7_7ae1_f5d5_6d51),
            ("fig7.json", 0xcbfa_41f8_39c2_6a9c),
            ("fig7_double-bof.csv", 0xcd11_d88c_ebe5_dcbc),
            ("fig7_double-bof.txt", 0x4629_b1a5_e8ba_1a07),
            ("fig7_double-nbl.csv", 0xab39_172b_fed1_b997),
            ("fig7_double-nbl.txt", 0x2a26_1378_c72d_9894),
            ("fig7_triple.csv", 0x1529_b273_7f82_cc26),
            ("fig7_triple.txt", 0xe835_3294_de80_9e10),
        ],
    ),
    (
        "fig8",
        &[
            ("fig8.gp", 0x1db9_4919_9826_5bf2),
            ("fig8.json", 0xb015_bb3f_77f3_b9e9),
            ("fig8_waste_ratio.csv", 0x5282_fd8d_9950_0645),
        ],
    ),
    (
        "fig9",
        &[
            ("fig9.gp", 0x1dcf_23d2_31d1_aec9),
            ("fig9.json", 0xa413_2789_7291_30a2),
            ("fig9_risk.csv", 0x7b5c_cc0e_fdb4_2897),
            ("fig9a_preview.txt", 0xd1c3_3c7d_cb93_f3e7),
            ("fig9b_preview.txt", 0xa442_6d81_96fe_33e0),
        ],
    ),
    (
        "period-check",
        &[
            ("period_check.csv", 0x43e0_9c1d_217f_826b),
            ("period_check.json", 0x83ac_059a_20ef_8212),
            ("period_check.txt", 0xf36f_5a58_0fe2_8dcc),
        ],
    ),
    (
        "phi-choice",
        &[
            ("phi_choice.csv", 0x736d_0d3e_6caf_b7ff),
            ("phi_choice.json", 0x2220_914a_1be3_df3c),
            ("phi_choice.txt", 0x3f3d_5d6b_34a3_b7bb),
        ],
    ),
    (
        "blocking-gain",
        &[
            ("blocking_gain.csv", 0x1198_edcf_06a9_c855),
            ("blocking_gain.json", 0x4df1_77ec_2d2b_3872),
            ("blocking_gain.txt", 0x9a65_602d_2e5f_ce96),
        ],
    ),
    (
        "hierarchical",
        &[
            ("hierarchical.csv", 0xf83e_f5cd_2581_c650),
            ("hierarchical.json", 0x1cda_399d_0f82_712f),
            ("hierarchical.txt", 0xe83c_fc68_e035_ea60),
        ],
    ),
];

const ROBUSTNESS_FAST: Pins = (
    "robustness",
    &[
        ("robustness.json", 0xcdbd_b3bf_5ea5_ee4e),
        ("robustness.txt", 0x156b_ee66_d0a0_16a1),
        ("robustness_risk.csv", 0x45e3_83a3_5f7d_a63a),
        ("robustness_waste.csv", 0xe46d_68be_069d_ecc6),
    ],
);
