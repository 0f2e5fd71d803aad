use super::*;

pub(crate) fn cmd_route(a: &Args) -> Result<String, CliError> {
    let (n, dim, seed) = a.population()?;
    let from: usize = a.get("from")?;
    let to: usize = a.get_or("to", n - 1)?;
    if let Some(&(key, peer)) = [("from", from), ("to", to)].iter().find(|e| e.1 >= n) {
        return Err(bad_value(key, peer));
    }
    let store = uniform_store(n, dim, seed, Arc::new(EmptyRectSelection));
    let route = geocast::overlay::routing::route_to_peer(&store, from, to);
    let title = format!("greedy route {from} -> {to} over {n} peers (D={dim}, seed {seed})");
    let mut out = Report::new(10, title);
    out.row("delivered", route.delivered());
    out.row("hops", route.hops());
    let path: Vec<String> = route.path().iter().map(ToString::to_string).collect();
    out.row("path", path.join(" -> "));
    Ok(out.text)
}
