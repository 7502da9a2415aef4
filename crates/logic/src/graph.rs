//! Graph algorithms shared by the substrates that sit on dense index
//! graphs: the AF condensation ([`crate::af::scc::Condensation`]) and
//! CaseLint's support-cycle pass both decompose their graphs here.

/// Strongly connected components of the graph on nodes `0..n` whose
/// out-edges from `v` are `successors(v)`, by one iterative Tarjan
/// pass: an explicit frame stack instead of recursion, so a 10^5-node
/// chain cannot overflow the call stack, and no allocation per node
/// (each frame holds the successor iterator itself).
///
/// Calls `component` once per component with its members. Components
/// come in Tarjan emission order: each is emitted after every
/// component reachable from it, so the first is a sink of the
/// condensation and the order is reverse topological. Roots are tried
/// in ascending node order.
///
/// ```
/// use casekit_logic::graph::tarjan_scc;
///
/// // 0 → 1 → 2 → 1, 2 → 3
/// let edges: [&[usize]; 4] = [&[1], &[2], &[1, 3], &[]];
/// let mut components = Vec::new();
/// tarjan_scc(4, |v| edges[v].iter().copied(), |members| {
///     let mut members = members.to_vec();
///     members.sort_unstable();
///     components.push(members);
/// });
/// assert_eq!(components, vec![vec![3], vec![1, 2], vec![0]]);
/// ```
pub fn tarjan_scc<I, S, C>(n: usize, mut successors: S, mut component: C)
where
    S: FnMut(usize) -> I,
    I: Iterator<Item = usize>,
    C: FnMut(&[usize]),
{
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut frames: Vec<(usize, I)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut descend = Some(root);
        loop {
            if let Some(v) = descend.take() {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
                frames.push((v, successors(v)));
            }
            let Some((v, next)) = frames.last_mut() else {
                break;
            };
            let v = *v;
            if let Some(w) = next.next() {
                if index[w] == UNVISITED {
                    descend = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let start = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("Tarjan stack holds the component");
                for &w in &stack[start..] {
                    on_stack[w] = false;
                }
                component(&stack[start..]);
                stack.truncate(start);
            }
        }
    }
}
