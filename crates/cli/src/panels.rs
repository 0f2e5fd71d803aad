use super::*;

/// One `figures` run's scale, and the §3 sweep fig1d and fig1e share.
pub(crate) struct Scale {
    full: bool,
    sweep: OnceCell<StabilitySweep>,
}

impl Scale {
    /// A panel's config: paper scale under `--full`, else `quick`.
    fn at<T: Default>(&self, quick: fn() -> T) -> T {
        self.full.then(T::default).unwrap_or_else(quick)
    }

    fn sweep(&self) -> &StabilitySweep {
        let cfg = || self.at(StabilityConfig::quick);
        self.sweep.get_or_init(|| stability_sweep(&cfg()))
    }
}

/// Every panel, in the order `all`, the last, prints them.
pub(crate) const PANELS: Choices<fn(&Scale) -> Vec<FigureReport>> = &[
    ("fig1a", |s| vec![fig1a(&s.at(Fig1Config::quick))]),
    ("fig1b", |s| vec![fig1b(&s.at(Fig1Config::quick))]),
    ("fig1c", |s| vec![fig1c(&s.at(Fig1cConfig::quick))]),
    ("fig1d", |s| vec![s.sweep().fig1d_report()]),
    ("fig1e", |s| vec![s.sweep().fig1e_report()]),
    ("claims", |s| {
        let cfg = s.at(ClaimsConfig::quick);
        vec![claims_section2(&cfg), claims_section3(&cfg)]
    }),
    ("ablation", |s| {
        vec![ablation_partitioner(&s.at(AblationConfig::quick))]
    }),
    ("baselines", |s| {
        let cfg = s.at(BaselineConfig::quick);
        vec![baseline_messages(&cfg), baseline_stability(&cfg)]
    }),
    ("repair", |s| vec![repair_cost(&s.at(RepairConfig::quick))]),
    ("churn", |s| vec![churn_panel(&s.at(ChurnConfig::quick))]),
    ("groups", |s| vec![groups_panel(&s.at(GroupsConfig::quick))]),
    ("detection", |s| {
        vec![detection_panel(&s.at(DetectionConfig::quick))]
    }),
    ("publish", |s| {
        vec![publish_panel(&s.at(PublishConfig::quick))]
    }),
    ("all", |s| {
        let panels = &PANELS[..PANELS.len() - 1];
        panels.iter().flat_map(|(_, panel)| panel(s)).collect()
    }),
];

pub(crate) fn cmd_figures(a: &Args) -> Result<String, CliError> {
    let &(_, panel) = a.choice("panel", PANELS)?;
    let (full, sweep) = (a.flag("full"), OnceCell::new());
    let reports = panel(&Scale { full, sweep });
    Ok(reports.iter().map(|r| format!("{r}\n")).collect())
}
