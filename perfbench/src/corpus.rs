//! Seeded input generators for the three workloads.
//!
//! Every generator takes the run's seed and nothing else, so one seed
//! always yields the same inputs. Class proportions are fixed (the seed
//! picks names, sizes within a range, and order), which keeps the cost
//! distribution — and so the medians and tails — the same across seeds.

use casekit_analysis::LintCode;
use casekit_core::{FormalPayload, Node, NodeKind};
use casekit_logic::prop::parse;
use casekit_service::EditOp;
use std::fmt::Write as _;

/// SplitMix64: a small, fast, well-mixed generator for input synthesis.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a>(&mut self, words: &[&'a str]) -> &'a str {
        words[self.below(words.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const SUBSYSTEMS: &[&str] = &[
    "brake",
    "steering",
    "watchdog",
    "telemetry",
    "power",
    "navigation",
    "sensor",
    "actuator",
    "comms",
    "thermal",
    "payload",
    "firmware",
];
const PROPERTIES: &[&str] = &[
    "verified",
    "tested",
    "reviewed",
    "monitored",
    "bounded",
    "isolated",
    "calibrated",
    "certified",
];
const TASKS: &[&str] = &["task", "job", "process", "thread", "runnable", "handler"];
const SLOTS: &[&str] = &["partition", "core", "channel", "slot", "lane", "node"];

/// Names one file draws its atoms from: a subsystem and a property word,
/// so atoms read like real formalised cases (`brake_verified_3`).
struct Vocabulary {
    subsystem: &'static str,
    property: &'static str,
}

impl Vocabulary {
    fn draw(rng: &mut Rng) -> Self {
        Vocabulary {
            subsystem: rng.pick(SUBSYSTEMS),
            property: rng.pick(PROPERTIES),
        }
    }

    fn atom(&self, tag: &str, i: usize) -> String {
        format!("{}_{}_{tag}_{i}", self.subsystem, self.property)
    }

    /// A long descriptive atom, as the lint and service corpora carry:
    /// the frontend pays to lex and intern it.
    fn long_atom(&self, i: usize, j: usize) -> String {
        format!(
            "independent_{}_activity_for_{}_component_{i}_confirms_the_stage_{j}_requirement_allocation",
            self.property, self.subsystem
        )
    }

    /// `a_0 & (a_0 -> a_1) & … & (a_{w-1} -> a_w)` over long atoms.
    fn chain(&self, i: usize, width: usize) -> String {
        let mut src = self.long_atom(i, 0);
        for j in 0..width {
            let _ = write!(
                src,
                " & ({} -> {})",
                self.long_atom(i, j),
                self.long_atom(i, j + 1)
            );
        }
        src
    }
}

// ---------------------------------------------------------------------
// ingest

/// The defect a generated ingest file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    Clean,
    Truncated,
    KeywordTypo,
    BadPayload,
    Unterminated,
    StrayChar,
    DuplicateAndDangling,
}

impl Defect {
    /// The syntax code the frontend must raise for this defect class
    /// (`None`: the file must raise no syntax code at all).
    pub fn expected_code(self) -> Option<LintCode> {
        match self {
            Defect::Clean => None,
            Defect::Truncated | Defect::StrayChar => Some(LintCode::SyntaxGeneral),
            Defect::KeywordTypo => Some(LintCode::UnknownKeyword),
            Defect::BadPayload => Some(LintCode::MalformedPayload),
            Defect::Unterminated => Some(LintCode::UnterminatedString),
            Defect::DuplicateAndDangling => Some(LintCode::InvalidStructure),
        }
    }
}

/// One in four files clean, three in four carrying one of six defects,
/// in equal shares.
const DEFECT_STRIPE: [Defect; 8] = [
    Defect::Clean,
    Defect::Truncated,
    Defect::KeywordTypo,
    Defect::BadPayload,
    Defect::Clean,
    Defect::Unterminated,
    Defect::StrayChar,
    Defect::DuplicateAndDangling,
];

pub struct IngestFile {
    pub src: String,
    pub defect: Defect,
}

/// A well-formed file shaped like the DSL bench corpus: a formalised
/// root over a context and a strategy over striped propositional,
/// temporal and undeveloped premises.
fn ingest_valid(k: usize, nodes: usize, words: &Vocabulary) -> String {
    let mut src = format!("argument \"{}-case-{k}\" {{\n", words.subsystem);
    let _ = writeln!(
        src,
        "  goal n0 \"top-level claim\" formal \"{}\" {{",
        words.atom("root", 0)
    );
    src.push_str("    context n1 \"operating envelope\"\n");
    src.push_str("    strategy n2 \"argue over premises\" {\n");
    for i in 3..nodes {
        let _ = match i % 3 {
            0 => {
                let (p, q) = (words.atom("p", i), words.atom("q", i));
                writeln!(
                    src,
                    "      goal n{i} \"premise {i}\" formal \"{p} & ({p} -> {q})\" {{ solution s{i} \"evidence report {i}\" }}"
                )
            }
            1 => writeln!(
                src,
                "      goal n{i} \"liveness premise {i}\" temporal \"G ({} -> F {})\" {{ solution s{i} \"trace log {i}\" }}",
                words.atom("req", i),
                words.atom("ack", i)
            ),
            _ => writeln!(src, "      claim n{i} \"informal claim {i}\" undeveloped"),
        };
    }
    src.push_str("    }\n  }\n}\n");
    src
}

fn inject(src: &mut String, defect: Defect) {
    match defect {
        Defect::Clean => {}
        Defect::Truncated => {
            // Cut at a line start near two thirds: the file ends inside
            // an open block, never inside a string.
            let cut = src[..src.len() * 2 / 3].rfind('\n').map_or(0, |i| i + 1);
            src.truncate(cut);
        }
        Defect::KeywordTypo => *src = src.replacen("goal n0", "gaol n0", 1),
        Defect::BadPayload => {
            let root = src.find("goal n0").expect("every file has a root");
            let end = root + src[root..].find("\" {\n").expect("the root opens a block");
            src.insert_str(end, " &");
        }
        Defect::Unterminated => {
            let last = src.rfind('"').expect("every file has strings");
            src.remove(last);
        }
        Defect::StrayChar => *src = src.replacen("  goal n0", "  $ goal n0", 1),
        Defect::DuplicateAndDangling => {
            let close = src.rfind('}').expect("every file has braces");
            src.insert_str(
                close,
                "  goal n0 \"duplicate of the root\"\n  goal nx \"dangler\" { ref zz }\n",
            );
        }
    }
}

pub fn ingest_corpus(seed: u64, files: usize) -> Vec<IngestFile> {
    let mut rng = Rng::new(seed);
    let mut corpus: Vec<IngestFile> = (0..files)
        .map(|k| {
            let words = Vocabulary::draw(&mut rng);
            let nodes = 8 + rng.below(9);
            let defect = DEFECT_STRIPE[k % DEFECT_STRIPE.len()];
            let mut src = ingest_valid(k, nodes, &words);
            inject(&mut src, defect);
            IngestFile { src, defect }
        })
        .collect();
    rng.shuffle(&mut corpus);
    corpus
}

// ---------------------------------------------------------------------
// solve

pub struct SolveFile {
    pub src: String,
    /// Ground truth by construction: the formal premises are jointly
    /// unsatisfiable, so CK101 must appear (and only then).
    pub inconsistent: bool,
}

/// The pigeonhole allocation of `tasks` tasks onto `slots` slots as one
/// formula: every task somewhere, no slot shared. Unsatisfiable iff
/// `tasks > slots`.
fn pigeonhole(rng: &mut Rng, tasks: usize, slots: usize) -> String {
    let (task, slot) = (rng.pick(TASKS), rng.pick(SLOTS));
    let words = Vocabulary::draw(rng);
    let x = |t: usize, s: usize| format!("{}_{task}_{t}_on_{slot}_{s}", words.subsystem);
    let mut parts = Vec::new();
    for t in 0..tasks {
        let any: Vec<String> = (0..slots).map(|s| x(t, s)).collect();
        parts.push(format!("({})", any.join(" | ")));
    }
    for s in 0..slots {
        for a in 0..tasks {
            for b in a + 1..tasks {
                parts.push(format!("~({} & {})", x(a, s), x(b, s)));
            }
        }
    }
    parts.join(" & ")
}

fn solve_allocation(rng: &mut Rng, k: usize, tasks: usize, slots: usize) -> String {
    let allocation = pigeonhole(rng, tasks, slots);
    let words = Vocabulary::draw(rng);
    let (monitor, safe) = (words.atom("monitor", k), words.atom("safe", k));
    let mut src = format!("argument \"{}-allocation-{k}\" {{\n", words.subsystem);
    let _ = writeln!(
        src,
        "  goal g0 \"the schedule is safe\" formal \"{safe}\" {{"
    );
    src.push_str("    strategy s0 \"argue over the allocation and its monitor\" {\n");
    let _ = writeln!(
        src,
        "      goal p0 \"every task has a slot and no slot is shared\" formal \"{allocation}\" {{ solution e0 \"allocation table review\" }}"
    );
    let _ = writeln!(
        src,
        "      goal p1 \"the monitor enforces safety\" formal \"{monitor} & ({monitor} -> {safe})\" {{ solution e1 \"monitor test report\" }}"
    );
    src.push_str("    }\n  }\n}\n");
    src
}

/// A lint-corpus-style case: a conclusion over premise chains (the last
/// one redundant) plus defect class `class` of six: none, duplicate
/// evidence, a detached support cycle, a gap with a shadowed context, a
/// contradictory premise pair, a quantifier mismatch.
fn solve_chain(rng: &mut Rng, k: usize, class: usize) -> SolveFile {
    let words = Vocabulary::draw(rng);
    let premises = 3 + rng.below(3);
    let width = 8 + rng.below(9);
    let conclusion = (0..premises - 1)
        .map(|i| words.long_atom(i, width))
        .collect::<Vec<_>>()
        .join(" & ");
    let mut src = format!("argument \"{}-chain-{k}\" {{\n", words.subsystem);
    let _ = writeln!(
        src,
        "  goal g0 \"top-level claim\" formal \"{conclusion}\" {{"
    );
    if class == 3 {
        src.push_str("    context c1 \"Operating envelope\"\n");
    }
    src.push_str("    strategy s0 \"argue over premise chains\" {\n");
    for i in 0..premises {
        let _ = writeln!(
            src,
            "      goal p{i} \"premise {i}\" formal \"{}\" {{",
            words.chain(i, width)
        );
        if i == 0 && class == 3 {
            src.push_str("        context c2 \"operating  envelope\"\n");
        }
        let _ = writeln!(src, "        solution e{i} \"analysis report {i}\"");
        if i == 0 && class == 1 {
            src.push_str("        solution d1 \"Stress test log\"\n");
            src.push_str("        solution d2 \"stress  test log\"\n");
        }
        src.push_str("      }\n");
    }
    if class == 3 {
        src.push_str("      goal u1 \"unargued side claim\"\n");
    }
    if class == 4 {
        let q = words.atom("asserted", k);
        let _ = writeln!(
            src,
            "      goal q1 \"asserts q\" formal \"{q}\" {{ solution eq1 \"report for q\" }}"
        );
        let _ = writeln!(
            src,
            "      goal q2 \"denies q\" formal \"~{q}\" {{ solution eq2 \"report against q\" }}"
        );
    }
    src.push_str("    }\n");
    if class == 5 {
        src.push_str("    goal a1 \"All inputs are validated\" {\n");
        src.push_str("      solution ea1 \"spot checks on some inputs\"\n");
        src.push_str("    }\n");
    }
    src.push_str("  }\n");
    if class == 2 {
        src.push_str("  goal x1 \"orbiting claim a\" {\n");
        src.push_str("    goal x2 \"orbiting claim b\" { ref x1 }\n");
        src.push_str("  }\n");
    }
    src.push_str("}\n");
    SolveFile {
        src,
        inconsistent: class == 4,
    }
}

/// Two in six files an unsatisfiable allocation (PHP 5→4, 6→5, 7→6 in
/// equal shares), two in six a satisfiable one (n→n for the same n),
/// two in six a chain case (its six classes in equal shares).
pub fn solve_corpus(seed: u64, files: usize) -> Vec<SolveFile> {
    let mut rng = Rng::new(seed);
    let mut corpus: Vec<SolveFile> = (0..files)
        .map(|k| {
            let n = 5 + (k / 6) % 3;
            match k % 6 {
                0 | 1 => SolveFile {
                    src: solve_allocation(&mut rng, k, n, n - 1),
                    inconsistent: true,
                },
                2 | 3 => SolveFile {
                    src: solve_allocation(&mut rng, k, n, n),
                    inconsistent: false,
                },
                _ => solve_chain(&mut rng, k, (k / 2) % 6),
            }
        })
        .collect();
    rng.shuffle(&mut corpus);
    corpus
}

// ---------------------------------------------------------------------
// edit

/// Rounds in one traffic cycle.
pub const CYCLE_ROUNDS: usize = 6;

pub struct EditCase {
    pub src: String,
    /// One traffic cycle: each round is an edit burst (possibly empty)
    /// followed by two reads. The cycle ends on the revision it started
    /// from, so it can repeat for as long as a run lasts.
    pub cycle: Vec<Vec<EditOp>>,
    /// The round this case's traffic starts at (set-up applies the
    /// earlier rounds' edits), so every sweep over the fleet mixes every
    /// round kind.
    pub start: usize,
}

/// A service-corpus-style case: the top claim (the conjunction of every
/// branch's chain end) over a strategy over `premises` branch goals,
/// each argued from its own premise chain.
fn edit_source(k: usize, premises: usize, width: usize, words: &Vocabulary) -> String {
    let conclusion = (0..premises)
        .map(|i| words.long_atom(i, width))
        .collect::<Vec<_>>()
        .join(" & ");
    let mut src = format!("argument \"{}-live-{k}\" {{\n", words.subsystem);
    let _ = writeln!(
        src,
        "  goal g0 \"top-level claim\" formal \"{conclusion}\" {{"
    );
    src.push_str("    strategy s0 \"argue per subsystem branch\" {\n");
    for i in 0..premises {
        let _ = writeln!(
            src,
            "      goal b{i} \"branch {i} chain end\" formal \"{}\" {{",
            words.long_atom(i, width)
        );
        let _ = writeln!(
            src,
            "        goal p{i} \"premise {i}\" formal \"{}\" {{",
            words.chain(i, width)
        );
        let _ = writeln!(src, "          solution e{i} \"analysis report {i}\"");
        if i == 0 && k % 4 == 1 {
            src.push_str("          solution d1 \"Stress test log\"\n");
            src.push_str("          solution d2 \"stress  test log\"\n");
        }
        src.push_str("        }\n      }\n");
    }
    if k % 4 == 3 {
        src.push_str("      goal u1 \"unargued side claim\"\n");
    }
    src.push_str("    }\n  }\n}\n");
    src
}

pub fn edit_corpus(seed: u64, cases: usize) -> Vec<EditCase> {
    let mut rng = Rng::new(seed);
    (0..cases)
        .map(|k| {
            let words = Vocabulary::draw(&mut rng);
            let premises = 3 + k % 3;
            let width = 6;
            let target = rng.below(premises);
            let node = casekit_core::NodeId::new(format!("p{target}"));
            let formula = |w| parse(&words.chain(target, w)).expect("generated formula parses");
            let set_text = |text: &str| EditOp::SetText {
                node: "g0".into(),
                text: text.into(),
            };
            let extra = Node::new("w0", NodeKind::Goal, "late-added premise").with_formal(
                FormalPayload::Prop(
                    parse(&words.long_atom(premises, 0)).expect("generated formula parses"),
                ),
            );
            let cycle = vec![
                // Sever the chain's last link: the conclusion loses it.
                vec![EditOp::ReplaceFormula {
                    node: node.clone(),
                    formula: formula(width - 1),
                }],
                // Read-only round: served from the answer cache.
                vec![],
                // Restore the chain and touch the statement text.
                vec![
                    EditOp::ReplaceFormula {
                        node,
                        formula: formula(width),
                    },
                    set_text("top-level claim, revised"),
                ],
                // Structural: add an extra supporting premise …
                vec![EditOp::AddSupport {
                    parent: "s0".into(),
                    node: extra,
                }],
                vec![],
                // … and take it out again, back to the opening text.
                vec![
                    EditOp::RemoveNode { node: "w0".into() },
                    set_text("top-level claim"),
                ],
            ];
            debug_assert_eq!(cycle.len(), CYCLE_ROUNDS);
            let start = rng.below(CYCLE_ROUNDS);
            EditCase {
                src: edit_source(k, premises, width, &words),
                cycle,
                start,
            }
        })
        .collect()
}
