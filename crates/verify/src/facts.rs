//! The machine-readable facts artifact: everything the interprocedural
//! tier proved about an image, packaged as the input contract for
//! downstream consumers — the engine's ITLB pre-seeding today, a
//! baseline JIT tomorrow (`vmlint --emit-facts`).
//!
//! The JSON layout (`version` 1) is:
//!
//! ```json
//! {
//!   "version": 1,
//!   "degraded": false,
//!   "classes": [ {"id": 1, "name": "SmallInteger"}, ... ],
//!   "methods": [ {"index": 0, "name": "...", "class": "...",
//!                 "selector": "...", "fuel": 12, "may_write_ctx": false,
//!                 "reachable": true}, ... ],
//!   "call_graph": [ [1, 2], ... ],
//!   "sites": [ {"method": 0, "pc": 0, "selector": "+",
//!               "kind": "monomorphic", "receivers": ["SmallInteger"],
//!               "prims": ["Add"], "methods": []}, ... ],
//!   "fresh": [ {"method": 0, "pc": 3, "class": "Point",
//!               "escapes": false}, ... ],
//!   "summary": {"sites": 0, "live_sites": 0, "monomorphic": 0,
//!               "polymorphic": 0, "unresolvable": 0, "dead": 0,
//!               "resolved_pct": 0.0, "preseed_keys": 0}
//! }
//! ```
//!
//! `fuel` is `null` when unbounded; a ⊤ receiver set is abbreviated
//! `["*"]`.

use std::collections::HashMap;

use com_core::ProgramImage;
use com_mem::ClassId;
use com_obj::ItlbKey;

use crate::callgraph::{CallGraph, FuelBound};
use crate::error::VerifyError;
use crate::infer::{infer_image, Inference, SiteKind};

/// Per-method presentation metadata captured at analysis time, so the
/// facts stay self-contained once the image is gone.
#[derive(Debug, Clone)]
pub struct MethodMeta {
    /// The method's display name (`Class ≫ selector`).
    pub name: String,
    /// The owning class's name.
    pub class: String,
    /// The selector's name.
    pub selector: String,
}

/// Aggregate counters over the site table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactsSummary {
    /// Total send sites (every instruction of every method).
    pub sites: usize,
    /// Sites whose receiver set is non-empty.
    pub live_sites: usize,
    /// Live sites with exactly one resolved target.
    pub monomorphic: usize,
    /// Live sites with several understood targets.
    pub polymorphic: usize,
    /// Live sites where some receiver does not understand the selector.
    pub unresolvable: usize,
    /// Provably never-executed sites.
    pub dead: usize,
    /// `monomorphic / live_sites`, as a percentage (0 when no live
    /// sites or the inference degraded).
    pub resolved_pct: f64,
}

/// The whole-image analysis bundle: inference, call graph, reachability
/// from the chosen entry roots, and presentation metadata.
#[derive(Debug)]
pub struct ImageFacts {
    /// The class inference.
    pub inference: Inference,
    /// The call graph with interprocedural fuel.
    pub callgraph: CallGraph,
    /// Per-method reachability from the entry roots (plus the
    /// engine-invoked trap handlers).
    pub reachable: Vec<bool>,
    /// The method indices used as entry roots.
    pub entry_roots: Vec<usize>,
    /// Per-method display metadata.
    pub methods: Vec<MethodMeta>,
    /// Class id → name, captured from the universe.
    pub class_names: HashMap<ClassId, String>,
    /// Selector opcode value → name.
    pub selector_names: HashMap<u16, String>,
    /// Aggregates.
    pub summary: FactsSummary,
}

impl ImageFacts {
    /// Analyzes an image with every method as an entry root (no
    /// unreachability claims — use [`ImageFacts::analyze_with`] to
    /// narrow the roots).
    ///
    /// # Errors
    ///
    /// The image's first [`VerifyError`], if it fails verification.
    pub fn analyze(image: &ProgramImage) -> Result<ImageFacts, VerifyError> {
        Self::analyze_with(image, &[])
    }

    /// Analyzes an image with the given entry selectors as call-graph
    /// roots. An empty list means "every method is a root". Trap
    /// handlers are always roots — the engine invokes them directly.
    ///
    /// # Errors
    ///
    /// The image's first [`VerifyError`], if it fails verification.
    pub fn analyze_with(
        image: &ProgramImage,
        entries: &[String],
    ) -> Result<ImageFacts, VerifyError> {
        let inference = infer_image(image)?;
        let callgraph = CallGraph::build(image, &inference);
        let entry_roots: Vec<usize> = if entries.is_empty() {
            (0..image.methods.len()).collect()
        } else {
            let sels: Vec<_> = entries
                .iter()
                .filter_map(|e| image.opcodes.get(e))
                .collect();
            image
                .methods
                .iter()
                .enumerate()
                .filter(|(_, m)| sels.contains(&m.selector))
                .map(|(i, _)| i)
                .collect()
        };
        let reachable = callgraph.reachable_from(&entry_roots);
        let methods = image
            .methods
            .iter()
            .map(|m| MethodMeta {
                name: m.code.name.clone(),
                class: inference
                    .universe
                    .classes
                    .get(m.class)
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("class#{}", m.class.0)),
                selector: image.opcodes.name(m.selector).unwrap_or("?").to_string(),
            })
            .collect();
        let class_names: HashMap<ClassId, String> = inference
            .universe
            .classes
            .iter()
            .map(|(id, info)| (id, info.name.clone()))
            .collect();
        let selector_names: HashMap<u16, String> = image
            .opcodes
            .iter()
            .map(|(op, name)| (op.0, name.to_string()))
            .collect();
        let summary = summarize(&inference);
        Ok(ImageFacts {
            inference,
            callgraph,
            reachable,
            entry_roots,
            methods,
            class_names,
            selector_names,
            summary,
        })
    }

    /// The ITLB keys every statically monomorphic site can pre-seed —
    /// (selector, receiver class[, argument class]) triples whose lookup
    /// outcome is already known. Sites with wide key products are
    /// skipped (pre-seeding them would flood the cache).
    pub fn preseed_keys(&self) -> Vec<ItlbKey> {
        const MAX_KEYS_PER_SITE: usize = 8;
        let u = &self.inference.universe;
        let mut keys: Vec<ItlbKey> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for site in &self.inference.sites {
            if site.kind != SiteKind::Monomorphic {
                continue;
            }
            let op = com_isa::Opcode(site.selector.0);
            let receivers: Vec<ClassId> = u.classes_in(&site.receivers).collect();
            match &site.arg {
                Some(arg) => {
                    let args: Vec<ClassId> = u.classes_in(arg).collect();
                    if receivers.len() * args.len() > MAX_KEYS_PER_SITE {
                        continue;
                    }
                    for r in &receivers {
                        for a in &args {
                            let key = ItlbKey::binary(op, *r, *a);
                            if seen.insert(key) {
                                keys.push(key);
                            }
                        }
                    }
                }
                None => {
                    if receivers.len() > MAX_KEYS_PER_SITE {
                        continue;
                    }
                    for r in &receivers {
                        let key = ItlbKey::unary(op, *r);
                        if seen.insert(key) {
                            keys.push(key);
                        }
                    }
                }
            }
        }
        keys
    }

    /// Serializes the facts as the version-1 JSON artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"version\": 1,\n");
        out.push_str(&format!("  \"degraded\": {},\n", self.inference.degraded));
        // Classes.
        out.push_str("  \"classes\": [");
        let mut ids: Vec<_> = self.class_names.keys().copied().collect();
        ids.sort_by_key(|c| c.0);
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"id\": {}, \"name\": {}}}",
                id.0,
                json_str(&self.class_names[id])
            ));
        }
        out.push_str("],\n");
        // Methods.
        out.push_str("  \"methods\": [\n");
        for (i, m) in self.methods.iter().enumerate() {
            let fuel = match self.callgraph.fuel.get(i) {
                Some(FuelBound::Bounded(f)) => f.to_string(),
                _ => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"index\": {}, \"name\": {}, \"class\": {}, \"selector\": {}, \"fuel\": {}, \"may_write_ctx\": {}, \"reachable\": {}}}{}\n",
                i,
                json_str(&m.name),
                json_str(&m.class),
                json_str(&m.selector),
                fuel,
                self.inference.may_write_ctx.get(i).copied().unwrap_or(true),
                self.reachable.get(i).copied().unwrap_or(true),
                if i + 1 < self.methods.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        // Call graph.
        out.push_str("  \"call_graph\": [");
        for (i, callees) in self.callgraph.edges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "[{}]",
                callees
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out.push_str("],\n");
        // Sites.
        out.push_str("  \"sites\": [\n");
        let n_sites = self.inference.sites.len();
        for (i, site) in self.inference.sites.iter().enumerate() {
            let kind = match site.kind {
                SiteKind::Monomorphic => "monomorphic",
                SiteKind::Polymorphic => "polymorphic",
                SiteKind::Unresolvable => "unresolvable",
                SiteKind::Dead => "dead",
            };
            let receivers = if self.inference.universe.is_top(&site.receivers) {
                "[\"*\"]".to_string()
            } else {
                let names: Vec<String> = self
                    .inference
                    .universe
                    .classes_in(&site.receivers)
                    .map(|c| json_str(self.class_names.get(&c).map(|s| s.as_str()).unwrap_or("?")))
                    .collect();
                format!("[{}]", names.join(", "))
            };
            let prims: Vec<String> = site
                .prims
                .iter()
                .map(|p| json_str(&p.to_string()))
                .collect();
            let methods: Vec<String> = site.methods.iter().map(|m| m.to_string()).collect();
            out.push_str(&format!(
                "    {{\"method\": {}, \"pc\": {}, \"selector\": {}, \"kind\": \"{}\", \"receivers\": {}, \"prims\": [{}], \"methods\": [{}]}}{}\n",
                site.method,
                site.pc,
                json_str(
                    self.selector_names
                        .get(&site.selector.0)
                        .map(|s| s.as_str())
                        .unwrap_or("?")
                ),
                kind,
                receivers,
                prims.join(", "),
                methods.join(", "),
                if i + 1 < n_sites { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        // Fresh-object escape facts.
        out.push_str("  \"fresh\": [");
        for (i, f) in self.inference.fresh.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let class = match f.class.and_then(|c| self.class_names.get(&c)) {
                Some(name) => json_str(name),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"method\": {}, \"pc\": {}, \"class\": {}, \"escapes\": {}}}",
                f.method, f.pc, class, f.escapes
            ));
        }
        out.push_str("],\n");
        // Summary.
        let s = &self.summary;
        out.push_str(&format!(
            "  \"summary\": {{\"sites\": {}, \"live_sites\": {}, \"monomorphic\": {}, \"polymorphic\": {}, \"unresolvable\": {}, \"dead\": {}, \"resolved_pct\": {:.1}, \"preseed_keys\": {}}}\n",
            s.sites,
            s.live_sites,
            s.monomorphic,
            s.polymorphic,
            s.unresolvable,
            s.dead,
            s.resolved_pct,
            self.preseed_keys().len()
        ));
        out.push_str("}\n");
        out
    }
}

fn summarize(inference: &Inference) -> FactsSummary {
    let mut s = FactsSummary {
        sites: inference.sites.len(),
        live_sites: 0,
        monomorphic: 0,
        polymorphic: 0,
        unresolvable: 0,
        dead: 0,
        resolved_pct: 0.0,
    };
    for site in &inference.sites {
        match site.kind {
            SiteKind::Monomorphic => s.monomorphic += 1,
            SiteKind::Polymorphic => s.polymorphic += 1,
            SiteKind::Unresolvable => s.unresolvable += 1,
            SiteKind::Dead => s.dead += 1,
        }
    }
    s.live_sites = s.sites - s.dead;
    if s.live_sites > 0 {
        s.resolved_pct = 100.0 * s.monomorphic as f64 / s.live_sites as f64;
    }
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::{Assembler, Opcode, Operand};

    fn tiny_image() -> ProgramImage {
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("double").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ double", 1);
        asm.emit_three(
            Opcode::ADD,
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(2),
            Operand::Cur(2),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        img
    }

    #[test]
    fn summary_counts_and_json_shape() {
        let img = tiny_image();
        let facts = ImageFacts::analyze(&img).unwrap();
        assert_eq!(facts.summary.sites, 2);
        assert_eq!(facts.summary.dead, 0);
        assert_eq!(facts.summary.monomorphic, 2);
        assert!(facts.summary.resolved_pct > 99.0);
        let json = facts.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"kind\": \"monomorphic\""));
        assert!(json.contains("\"resolved_pct\": 100.0"));
        // Every brace balances (cheap well-formedness check).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn preseed_keys_cover_the_monomorphic_sites() {
        let img = tiny_image();
        let facts = ImageFacts::analyze(&img).unwrap();
        let keys = facts.preseed_keys();
        // `self + self` on a SmallInteger receiver: one binary key.
        assert!(keys.contains(&ItlbKey::binary(
            Opcode::ADD,
            ClassId::SMALL_INT,
            ClassId::SMALL_INT
        )));
    }

    #[test]
    fn entry_roots_narrow_reachability() {
        let mut img = tiny_image();
        let orphan = img.opcodes.intern("orphan").unwrap();
        let mut asm = Assembler::new("SmallInteger ≫ orphan", 1);
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(1),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, orphan, asm.finish().unwrap());
        let facts = ImageFacts::analyze_with(&img, &["double".to_string()]).unwrap();
        assert_eq!(facts.entry_roots, vec![0]);
        assert!(facts.reachable[0]);
        assert!(!facts.reachable[1], "orphan is unreachable from double");
    }
}
