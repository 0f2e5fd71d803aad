use super::*;

/// The selection rules by dimension and `K`; signed stops at [`MAX_SIGNED_DIM`].
pub(crate) const METHODS: Choices<fn(usize, usize) -> Option<Selection>> = &[
    ("empty-rect", |_, _| Some(Arc::new(EmptyRectSelection))),
    ("orthogonal", |d, k| {
        Some(Arc::new(HyperplanesSelection::orthogonal(d, k)))
    }),
    ("signed", |d, k| {
        (d <= MAX_SIGNED_DIM).then(|| Arc::new(HyperplanesSelection::signed(d, k)) as _)
    }),
    ("k-closest", |d, k| {
        Some(Arc::new(HyperplanesSelection::k_closest(d, k)))
    }),
];

pub(crate) fn cmd_overlay(a: &Args) -> Result<String, CliError> {
    let (n, dim, seed) = a.population()?;
    let k: usize = a.get("k")?;
    let &(method, select) = a.choice("method", METHODS)?;
    let selection = select(dim, k).ok_or_else(|| bad_value("dim", dim))?;
    let store = uniform_store(n, dim, seed, selection);
    let graph = store.graph();
    let p = analysis::profile(&graph, Some(64.min(n)), seed);
    let stretch = if n >= 2 {
        analysis::geometric_stretch(store.peers(), &graph, 200, seed)
    } else {
        0.0
    };
    let title = format!("overlay: {method} over {n} peers (D={dim}, seed {seed})");
    let mut out = Report::new(18, title);
    out.row("directed edges", p.directed_edges);
    out.row("undirected links", p.undirected_edges);
    let (min, mean, max) = (p.degree_min, p.degree_mean, p.degree_max);
    out.row("degree", format!("min {min} / mean {mean:.1} / max {max}"));
    out.row("link symmetry", format!("{:.1}%", p.link_symmetry * 100.0));
    out.row("connected", p.connected);
    out.row("mean hop distance", format!("{:.2}", p.mean_hop_distance));
    out.row("max eccentricity", p.hop_eccentricity_max);
    let clustering = p.clustering_coefficient;
    out.row("clustering coeff", format!("{clustering:.3}"));
    out.row("geometric stretch", format!("{stretch:.2}"));
    Ok(out.text)
}
