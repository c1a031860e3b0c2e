//! `523.xalancbmk_r` stand-in: an XML parser plus an XSLT-subset
//! transformation engine.
//!
//! The SPEC benchmark transforms XML through Xalan-C++ stylesheets. This
//! mini parses the generated auction documents into a DOM arena and
//! executes a template-based transformation program over it. The
//! stylesheet grammar (see `alberta_workloads::xmlgen`) covers the XSLT
//! constructs that drive Xalan's behaviour: template dispatch by element
//! name, `apply` recursion, `for-each` iteration, `value-of` extraction,
//! and attribute-predicate `if`s.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::xmlgen::{self, XmlWorkload};
use alberta_workloads::{Named, Scale};

const DOM_REGION: u64 = 0xB000_0000;
const OUT_REGION: u64 = 0xC000_0000;

/// A DOM node in the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct XmlNode {
    /// Element name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child element arena indices.
    pub children: Vec<u32>,
    /// Concatenated text content directly inside this element.
    pub text: String,
}

/// A parsed document: an arena of nodes, index 0 is the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct XmlDoc {
    /// The node arena.
    pub nodes: Vec<XmlNode>,
}

/// Parses a document.
///
/// # Errors
///
/// Returns a message on unbalanced tags or malformed syntax.
pub(crate) fn parse_xml(input: &str, profiler: &mut Profiler, fns: &Fns) -> Result<XmlDoc, String> {
    profiler.enter(fns.parse);
    let result = parse_xml_inner(input, profiler);
    profiler.exit();
    result
}

fn parse_xml_inner(input: &str, profiler: &mut Profiler) -> Result<XmlDoc, String> {
    let mut nodes: Vec<XmlNode> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut root: Option<u32> = None;
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        profiler.load(DOM_REGION + i as u64 % (1 << 22));
        if bytes[i] == b'<' {
            let close = input[i..]
                .find('>')
                .map(|k| i + k)
                .ok_or_else(|| "unterminated tag".to_owned())?;
            let tag = &input[i + 1..close];
            profiler.retire(4);
            if let Some(name) = tag.strip_prefix('/') {
                // Closing tag.
                let top = stack.pop().ok_or_else(|| format!("unmatched </{name}>"))?;
                profiler.branch(0, true);
                if nodes[top as usize].name != name {
                    return Err(format!(
                        "mismatched close: expected </{}>, found </{name}>",
                        nodes[top as usize].name
                    ));
                }
            } else {
                profiler.branch(0, false);
                let self_closing = tag.ends_with('/');
                let tag = tag.trim_end_matches('/');
                let mut parts = tag.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| "empty tag".to_owned())?
                    .to_owned();
                let mut attrs = Vec::new();
                for p in parts {
                    if let Some((k, v)) = p.split_once('=') {
                        attrs.push((k.to_owned(), v.trim_matches('"').to_owned()));
                        profiler.retire(2);
                    }
                }
                let id = nodes.len() as u32;
                nodes.push(XmlNode {
                    name,
                    attrs,
                    children: Vec::new(),
                    text: String::new(),
                });
                profiler.store(DOM_REGION + id as u64 * 64 % (1 << 22));
                if let Some(&parent) = stack.last() {
                    nodes[parent as usize].children.push(id);
                } else if root.is_none() {
                    root = Some(id);
                } else {
                    return Err("multiple root elements".to_owned());
                }
                if !self_closing {
                    stack.push(id);
                }
            }
            i = close + 1;
        } else {
            let next = input[i..].find('<').map(|k| i + k).unwrap_or(bytes.len());
            let text = input[i..next].trim();
            if !text.is_empty() {
                if let Some(&top) = stack.last() {
                    nodes[top as usize].text.push_str(text);
                    profiler.retire(text.len() as u64 / 4 + 1);
                }
            }
            i = next;
        }
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed elements", stack.len()));
    }
    if nodes.is_empty() {
        return Err("empty document".to_owned());
    }
    Ok(XmlDoc { nodes })
}

/// One stylesheet action.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Emit literal text.
    Emit(String),
    /// Apply templates to children matching the name (`*` = all).
    Apply(String),
    /// Output the text of the first child element with the given name.
    ValueOf(String),
    /// Iterate over matching children with a nested body.
    ForEach(String, Vec<Action>),
    /// Attribute predicate: `@attr > n` or `@attr < n`.
    If {
        /// Attribute name (without `@`).
        attr: String,
        /// True for `>`, false for `<`.
        greater: bool,
        /// Comparison constant.
        value: i64,
        /// Body.
        body: Vec<Action>,
    },
}

/// A compiled stylesheet: element name → template body.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Stylesheet {
    templates: Vec<(String, Vec<Action>)>,
}

impl Stylesheet {
    /// Looks up the template for an element name.
    pub(crate) fn template(&self, name: &str) -> Option<&[Action]> {
        self.templates
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, a)| a.as_slice())
    }
}

/// Parses the mini-XSLT grammar.
///
/// # Errors
///
/// Returns a message on malformed syntax.
pub(crate) fn parse_stylesheet(src: &str) -> Result<Stylesheet, String> {
    let mut lines = src.lines().peekable();
    let mut templates = Vec::new();
    while let Some(line) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("template ")
            .ok_or_else(|| format!("expected template declaration, got {line:?}"))?;
        let name = rest
            .strip_suffix('{')
            .ok_or_else(|| "template must open a brace".to_owned())?
            .trim()
            .to_owned();
        let body = parse_block(&mut lines)?;
        templates.push((name, body));
    }
    Ok(Stylesheet { templates })
}

fn parse_block<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
) -> Result<Vec<Action>, String> {
    let mut actions = Vec::new();
    while let Some(line) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            return Ok(actions);
        }
        if let Some(text) = line.strip_prefix("emit ") {
            actions.push(Action::Emit(text.to_owned()));
        } else if let Some(name) = line.strip_prefix("apply ") {
            actions.push(Action::Apply(name.trim().to_owned()));
        } else if let Some(name) = line.strip_prefix("value-of ") {
            actions.push(Action::ValueOf(name.trim().to_owned()));
        } else if let Some(rest) = line.strip_prefix("for-each ") {
            let name = rest
                .strip_suffix('{')
                .ok_or_else(|| "for-each must open a brace".to_owned())?
                .trim()
                .to_owned();
            // Recursive: consume the nested block.
            let body = parse_block_rec(lines)?;
            actions.push(Action::ForEach(name, body));
        } else if let Some(rest) = line.strip_prefix("if ") {
            let cond = rest
                .strip_suffix('{')
                .ok_or_else(|| "if must open a brace".to_owned())?
                .trim();
            let (attr_part, greater, value_part) = if let Some((a, v)) = cond.split_once('>') {
                (a, true, v)
            } else if let Some((a, v)) = cond.split_once('<') {
                (a, false, v)
            } else {
                return Err(format!("unsupported condition {cond:?}"));
            };
            let attr = attr_part
                .trim()
                .strip_prefix('@')
                .ok_or_else(|| "condition must test an attribute".to_owned())?
                .to_owned();
            let value: i64 = value_part
                .trim()
                .parse()
                .map_err(|_| format!("bad constant in {cond:?}"))?;
            let body = parse_block_rec(lines)?;
            actions.push(Action::If {
                attr,
                greater,
                value,
                body,
            });
        } else {
            return Err(format!("unknown action {line:?}"));
        }
    }
    Err("unterminated block".to_owned())
}

fn parse_block_rec<'a>(
    lines: &mut std::iter::Peekable<impl Iterator<Item = &'a str>>,
) -> Result<Vec<Action>, String> {
    parse_block(lines)
}

/// Public function-id bundle so helpers can be called from tests.
#[derive(Debug)]
pub(crate) struct Fns {
    parse: FnId,
    transform: FnId,
    match_template: FnId,
    output: FnId,
}

/// Registers the xalan function table.
pub(crate) fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        parse: profiler.register_function("xalan::parse_xml", 2400),
        transform: profiler.register_function("xalan::transform", 2000),
        match_template: profiler.register_function("xalan::match_template", 900),
        output: profiler.register_function("xalan::emit_output", 700),
    }
}

/// Applies the stylesheet to a document, returning the output text.
pub(crate) fn transform(
    doc: &XmlDoc,
    sheet: &Stylesheet,
    profiler: &mut Profiler,
    fns: &Fns,
) -> String {
    let mut out = String::new();
    apply_to(doc, 0, sheet, &mut out, profiler, fns, 0);
    out
}

#[allow(clippy::too_many_arguments)]
fn apply_to(
    doc: &XmlDoc,
    node: u32,
    sheet: &Stylesheet,
    out: &mut String,
    profiler: &mut Profiler,
    fns: &Fns,
    depth: u32,
) {
    if depth > 64 {
        return; // cycle guard; generated documents never nest this deep
    }
    profiler.enter(fns.match_template);
    let n = &doc.nodes[node as usize];
    profiler.load(DOM_REGION + node as u64 * 64 % (1 << 22));
    let template = sheet.template(&n.name);
    profiler.branch(1, template.is_some());
    profiler.exit();
    let Some(actions) = template else {
        // Default rule: recurse into children (XSLT's built-in template).
        let children = n.children.clone();
        for c in children {
            apply_to(doc, c, sheet, out, profiler, fns, depth + 1);
        }
        return;
    };
    profiler.enter(fns.transform);
    run_actions(doc, node, actions, sheet, out, profiler, fns, depth);
    profiler.exit();
}

#[allow(clippy::too_many_arguments)]
fn run_actions(
    doc: &XmlDoc,
    node: u32,
    actions: &[Action],
    sheet: &Stylesheet,
    out: &mut String,
    profiler: &mut Profiler,
    fns: &Fns,
    depth: u32,
) {
    let n = &doc.nodes[node as usize];
    for action in actions {
        profiler.retire(2);
        match action {
            Action::Emit(text) => {
                profiler.enter(fns.output);
                out.push_str(text);
                out.push('\n');
                profiler.store(OUT_REGION + out.len() as u64 % (1 << 22));
                profiler.exit();
            }
            Action::Apply(name) => {
                for &c in &n.children {
                    let matches = name == "*" || doc.nodes[c as usize].name == *name;
                    profiler.branch(2, matches);
                    if matches {
                        apply_to(doc, c, sheet, out, profiler, fns, depth + 1);
                    }
                }
            }
            Action::ValueOf(name) => {
                profiler.enter(fns.output);
                for &c in &n.children {
                    profiler.load(DOM_REGION + c as u64 * 64 % (1 << 22));
                    if doc.nodes[c as usize].name == *name {
                        out.push_str(&doc.nodes[c as usize].text);
                        out.push('\n');
                        break;
                    }
                }
                profiler.store(OUT_REGION + out.len() as u64 % (1 << 22));
                profiler.exit();
            }
            Action::ForEach(name, body) => {
                for &c in &n.children {
                    let matches = name == "*" || doc.nodes[c as usize].name == *name;
                    profiler.branch(3, matches);
                    if matches {
                        run_actions(doc, c, body, sheet, out, profiler, fns, depth + 1);
                    }
                }
            }
            Action::If {
                attr,
                greater,
                value,
                body,
            } => {
                let actual: Option<i64> = n
                    .attrs
                    .iter()
                    .find(|(k, _)| k == attr)
                    .and_then(|(_, v)| v.parse().ok());
                let pass = match actual {
                    Some(a) => {
                        if *greater {
                            a > *value
                        } else {
                            a < *value
                        }
                    }
                    None => false,
                };
                profiler.branch(4, pass);
                if pass {
                    run_actions(doc, node, body, sheet, out, profiler, fns, depth);
                }
            }
        }
    }
}

/// The xalancbmk mini-benchmark.
#[derive(Debug)]
pub(crate) struct MiniXalan {
    workloads: Vec<Named<XmlWorkload>>,
}

impl MiniXalan {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniXalan {
            workloads: standard_set(scale, xmlgen::train, xmlgen::refrate, xmlgen::alberta_set),
        }
    }
}

impl Benchmark for MiniXalan {
    fn name(&self) -> &'static str {
        "523.xalancbmk_r"
    }

    fn short_name(&self) -> &'static str {
        "xalancbmk"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let fns = register(profiler);
        let invalid = |reason: String| BenchError::InvalidInput {
            benchmark: "523.xalancbmk_r",
            reason,
        };
        let doc = parse_xml(&w.document, profiler, &fns).map_err(invalid)?;
        let sheet = parse_stylesheet(&w.stylesheet).map_err(|reason| BenchError::InvalidInput {
            benchmark: "523.xalancbmk_r",
            reason,
        })?;
        let out = transform(&doc, &sheet, profiler, &fns);
        Ok(RunOutput {
            checksum: fnv1a(out.bytes().map(|b| b as u64)),
            work: out.len() as u64,
        })
    }

    fn inject_malformed(&mut self, workload: &str, seed: u64) -> bool {
        self.workloads
            .iter_mut()
            .find(|n| n.name == workload)
            .map(|n| n.workload.truncate_document(seed))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_fns<T>(f: impl FnOnce(&mut Profiler, &Fns) -> T) -> T {
        let mut p = Profiler::default();
        let fns = register(&mut p);
        let r = f(&mut p, &fns);
        let _ = p.finish();
        r
    }

    #[test]
    fn parses_nested_document() {
        let doc =
            with_fns(|p, fns| parse_xml("<a x=\"1\"><b>hi</b><c><b>deep</b></c></a>", p, fns))
                .unwrap();
        assert_eq!(doc.nodes[0].name, "a");
        assert_eq!(doc.nodes[0].attrs, vec![("x".to_owned(), "1".to_owned())]);
        assert_eq!(doc.nodes[0].children.len(), 2);
        assert_eq!(doc.nodes[1].text, "hi");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "<a><b></a></b>",
            "<a>",
            "<a></a><b></b>",
            "no tags at all <",
        ] {
            assert!(
                with_fns(|p, fns| parse_xml(bad, p, fns)).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn stylesheet_round_trips_grammar() {
        let sheet = parse_stylesheet(&xmlgen::standard_stylesheet()).unwrap();
        assert!(sheet.template("auction").is_some());
        assert!(sheet.template("people").is_some());
        assert!(sheet.template("missing").is_none());
    }

    #[test]
    fn transform_applies_template_and_predicates() {
        let xml = "<auction><people>\
                   <person id=\"p0\" rating=\"9\"><name>ada</name><city>york</city></person>\
                   <person id=\"p1\" rating=\"2\"><name>bob</name><city>hull</city></person>\
                   </people><items></items></auction>";
        let out = with_fns(|p, fns| {
            let doc = parse_xml(xml, p, fns).unwrap();
            let sheet = parse_stylesheet(&xmlgen::standard_stylesheet()).unwrap();
            transform(&doc, &sheet, p, fns)
        });
        assert!(out.contains("ada"), "high-rated seller included: {out}");
        assert!(!out.contains("bob"), "low-rated seller filtered: {out}");
        assert!(out.contains("<report>"));
        assert!(out.contains("</report>"));
    }

    #[test]
    fn default_rule_recurses_through_unmatched_elements() {
        let xml = "<root><wrapper><person rating=\"8\"><name>eve</name></person></wrapper></root>";
        let sheet = parse_stylesheet("template person {\n  value-of name\n}\n").unwrap();
        let out = with_fns(|p, fns| {
            let doc = parse_xml(xml, p, fns).unwrap();
            transform(&doc, &sheet, p, fns)
        });
        assert!(out.contains("eve"));
    }

    #[test]
    fn bad_stylesheets_error() {
        assert!(parse_stylesheet("nonsense {\n}\n").is_err());
        assert!(parse_stylesheet("template a {\n  explode\n}\n").is_err());
        assert!(parse_stylesheet("template a {\n  if x > 3 {\n  }\n}\n").is_err());
        assert!(parse_stylesheet("template a {\n").is_err());
    }

    #[test]
    fn benchmark_runs_on_generated_workloads() {
        let b = MiniXalan::new(Scale::Test);
        let mut p = Profiler::default();
        let out = b.run("alberta.0", &mut p).unwrap();
        assert!(out.work > 0);
        let cov = p.finish().coverage_percent();
        assert!(cov["xalan::parse_xml"] > 5.0, "{cov:?}");
    }

    #[test]
    fn determinism() {
        let b = MiniXalan::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        assert_eq!(
            b.run("refrate", &mut p1).unwrap(),
            b.run("refrate", &mut p2).unwrap()
        );
    }
}
