use super::*;

/// How the §2 partitioner picks a zone's child.
pub(crate) const PICKS: Choices<fn() -> OrthantRectPartitioner> = &[
    ("median", OrthantRectPartitioner::median),
    ("closest", OrthantRectPartitioner::closest),
    ("farthest", OrthantRectPartitioner::farthest),
];

pub(crate) fn cmd_tree(a: &Args) -> Result<String, CliError> {
    let (n, dim, seed) = a.population()?;
    let root: usize = a.get("root")?;
    let &(pick, partitioner) = a.choice("pick", PICKS)?;
    if root >= n {
        return Err(bad_value("root", root));
    }
    let store = uniform_store(n, dim, seed, Arc::new(EmptyRectSelection));
    let everyone = (0..n).collect();
    let result = build_group_tree_on_store(&store, root, &everyone, &partitioner());
    let verdict = validate::check_section2(&result, n, dim);
    let title = format!("§2 multicast tree: {n} peers, D={dim}, root {root}, pick {pick}");
    let mut out = Report::new(18, title);
    let (messages, tree) = (result.messages, &result.tree);
    out.row("messages", format!("{messages} (N-1 = {})", n - 1));
    out.row("spanning", tree.is_spanning());
    out.row("height", tree.longest_root_to_leaf());
    out.row("diameter", tree.diameter());
    let (children, fanout) = (tree.max_children(), 1usize << dim);
    out.row("max children", format!("{children} (2^D = {fanout})"));
    out.row("§2 claims hold", verdict.all_hold());
    Ok(out.text)
}
