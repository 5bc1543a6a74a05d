// Lint-scanner fixture for the `twin-entry` rule. Line numbers are
// asserted exactly by ../lint_fixtures.rs — keep them stable.

pub fn solve(graph: &Graph, split: &Split, cancel: &CancelToken) -> u64 {
    solve_inner(graph, split, cancel)
}

pub fn solve_cancel(graph: &Graph, cancel: &CancelToken) -> u64 {
    solve(graph, &Split::compute(graph), cancel)
}

pub fn solve_with_split(graph: &Graph, split: &Split) -> u64 {
    solve(graph, split, &CancelToken::never())
}

pub fn sweep_with_scratch(graph: &Graph, scratch: &mut Scratch) -> u64 {
    scratch.run(graph)
}

// lint:allow(twin-entry):
pub fn bare_tag_cancel(graph: &Graph) -> u64 {
    solve(graph, &Split::compute(graph), &CancelToken::never())
}

// lint:allow(twin-entry): a benchmark times this call by name until its
// next change calls `solve` instead.
pub fn pinned_with_split(graph: &Graph, split: &Split) -> u64 {
    solve(graph, split, &CancelToken::never())
}

pub(crate) fn crate_visible_cancel(graph: &Graph) -> u64 {
    solve(graph, &Split::compute(graph), &CancelToken::never())
}

fn private_with_split(graph: &Graph, split: &Split) -> u64 {
    solve(graph, split, &CancelToken::never())
}

pub struct Token;

impl Token {
    pub fn request_cancel(&self) {}
}

#[cfg(test)]
mod tests {
    pub fn helper_with_scratch() {}
}
