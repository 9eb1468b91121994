//! The Packed Information (PI) and result-document wire formats.
//!
//! Both are XML "for interoperability" (paper §3.2): any gateway or MAS that
//! understands the schema can process agents from any device. The PI carries
//! the agent code, the authorization id/key, the itinerary and the user's
//! typed parameters; the result document carries everything the agent
//! brought back.

use pdagent_mas::{MobileAgent, ResultEntry};
use pdagent_vm::{Program, Value};
use pdagent_xml::{Element, XmlError};

/// Typed value → XML element `<v t="...">...</v>` (recursive for lists).
/// Delegates to [`Value::to_xml`], the shared encoding.
pub fn value_to_xml(value: &Value) -> Element {
    value.to_xml()
}

/// XML element → typed value.
pub fn value_from_xml(el: &Element) -> Result<Value, XmlError> {
    Value::from_xml(el).map_err(|message| XmlError::Syntax { offset: 0, message })
}

/// The Packed Information: what the Agent Dispatcher on the device assembles
/// and the gateway's Agent Dispatch Handler consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInformation {
    /// The unique id assigned to the MA code at subscription time (§3.1).
    pub code_id: String,
    /// The authorization key derived from the id (§3.2).
    pub auth_key: String,
    /// The agent program.
    pub program: Program,
    /// Sites to visit, in order.
    pub itinerary: Vec<String>,
    /// Typed launch parameters.
    pub params: Vec<(String, Value)>,
    /// Per-hop fuel budget.
    pub fuel_per_hop: u64,
}

impl PackedInformation {
    /// Serialize to the `<pi>` document (the plaintext that gets compressed
    /// and sealed into the envelope).
    pub fn to_xml(&self) -> Element {
        let mut pi = Element::new("pi").with_attr("version", "1");
        pi.push_child(
            Element::new("auth")
                .with_attr("id", &self.code_id)
                .with_attr("key", &self.auth_key),
        );
        pi.push_child(self.program.to_xml());
        let mut itin = Element::new("itinerary");
        for site in &self.itinerary {
            itin.push_child(Element::new("site").with_text(site.clone()));
        }
        pi.push_child(itin);
        let mut params = Element::new("params");
        for (name, value) in &self.params {
            let mut p = Element::new("param").with_attr("name", name);
            p.push_child(value_to_xml(value));
            params.push_child(p);
        }
        pi.push_child(params);
        pi.push_child(
            Element::new("options").with_attr("fuel", self.fuel_per_hop.to_string()),
        );
        pi
    }

    /// Serialize to the compact document string.
    pub fn to_document_string(&self) -> String {
        self.to_xml().to_document_string()
    }

    /// Parse from the `<pi>` root element. Only version 1 documents are
    /// understood; a future device speaking `version="2"` gets a clean
    /// error (→ HTTP 400) instead of a misparse.
    pub fn from_xml(pi: &Element) -> Result<PackedInformation, String> {
        if pi.name() != "pi" {
            return Err(format!("expected <pi>, found <{}>", pi.name()));
        }
        match pi.attr("version") {
            Some("1") | None => {}
            Some(other) => return Err(format!("unsupported PI version {other:?}")),
        }
        let auth = pi.require_child("auth").map_err(|e| e.to_string())?;
        let code_id = auth.require_attr("id").map_err(|e| e.to_string())?.to_owned();
        let auth_key = auth.require_attr("key").map_err(|e| e.to_string())?.to_owned();
        let code_el = pi.require_child("ma-code").map_err(|e| e.to_string())?;
        let program = Program::from_xml(code_el).map_err(|e| e.to_string())?;
        let itinerary = pi
            .require_child("itinerary")
            .map_err(|e| e.to_string())?
            .children_named("site")
            .map(|s| s.text())
            .collect();
        let mut params = Vec::new();
        if let Some(params_el) = pi.child("params") {
            for p in params_el.children_named("param") {
                let name = p.require_attr("name").map_err(|e| e.to_string())?.to_owned();
                let v_el = p
                    .child("v")
                    .ok_or_else(|| format!("param {name:?} missing <v>"))?;
                let value = value_from_xml(v_el).map_err(|e| e.to_string())?;
                params.push((name, value));
            }
        }
        let fuel_per_hop = pi
            .child("options")
            .and_then(|o| o.attr("fuel"))
            .map(|f| f.parse::<u64>().map_err(|e| format!("bad fuel: {e}")))
            .transpose()?
            .unwrap_or(1_000_000);
        Ok(PackedInformation { code_id, auth_key, program, itinerary, params, fuel_per_hop })
    }

    /// Parse from a document string.
    pub fn from_document_str(doc: &str) -> Result<PackedInformation, String> {
        let root = Element::parse_str(doc).map_err(|e| e.to_string())?;
        Self::from_xml(&root)
    }
}

/// How the agent's journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultStatus {
    /// Itinerary completed normally.
    Completed,
    /// Execution failed at some site (an `error` entry says why).
    Failed,
    /// Retracted by the user before finishing.
    Retracted,
}

impl ResultStatus {
    fn as_str(self) -> &'static str {
        match self {
            ResultStatus::Completed => "completed",
            ResultStatus::Failed => "failed",
            ResultStatus::Retracted => "retracted",
        }
    }

    fn parse(s: &str) -> Option<ResultStatus> {
        match s {
            "completed" => Some(ResultStatus::Completed),
            "failed" => Some(ResultStatus::Failed),
            "retracted" => Some(ResultStatus::Retracted),
            _ => None,
        }
    }
}

/// The result document the Document Creator assembles for the user.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDoc {
    /// Agent id the results belong to.
    pub agent_id: String,
    /// Journey outcome.
    pub status: ResultStatus,
    /// All `(site, key, value)` entries the agent emitted.
    pub entries: Vec<ResultEntry>,
    /// Total VM instructions the agent executed (accounting).
    pub instructions: u64,
}

impl ResultDoc {
    /// Build from a returned agent.
    pub fn from_agent(agent: &MobileAgent) -> ResultDoc {
        let status = if agent.results.iter().any(|r| r.key == "retracted") {
            ResultStatus::Retracted
        } else if agent.results.iter().any(|r| r.key == "error") {
            ResultStatus::Failed
        } else {
            ResultStatus::Completed
        };
        ResultDoc {
            agent_id: agent.id.0.clone(),
            status,
            entries: agent.results.clone(),
            instructions: agent.state.instructions,
        }
    }

    /// Serialize to the `<result>` document.
    pub fn to_xml(&self) -> Element {
        let mut root = Element::new("result")
            .with_attr("agent", &self.agent_id)
            .with_attr("status", self.status.as_str())
            .with_attr("instructions", self.instructions.to_string());
        for entry in &self.entries {
            let mut el = Element::new("entry")
                .with_attr("site", &entry.site)
                .with_attr("key", &entry.key);
            el.push_child(value_to_xml(&entry.value));
            root.push_child(el);
        }
        root
    }

    /// Serialize to the compact document string.
    pub fn to_document_string(&self) -> String {
        self.to_xml().to_document_string()
    }

    /// Parse from the `<result>` root element.
    pub fn from_xml(root: &Element) -> Result<ResultDoc, String> {
        if root.name() != "result" {
            return Err(format!("expected <result>, found <{}>", root.name()));
        }
        let agent_id = root.require_attr("agent").map_err(|e| e.to_string())?.to_owned();
        let status = ResultStatus::parse(root.require_attr("status").map_err(|e| e.to_string())?)
            .ok_or("unknown status")?;
        let instructions = root
            .attr("instructions")
            .unwrap_or("0")
            .parse::<u64>()
            .map_err(|e| format!("bad instructions: {e}"))?;
        let mut entries = Vec::new();
        for el in root.children_named("entry") {
            let site = el.require_attr("site").map_err(|e| e.to_string())?.to_owned();
            let key = el.require_attr("key").map_err(|e| e.to_string())?.to_owned();
            let v_el = el.child("v").ok_or("entry missing <v>")?;
            let value = value_from_xml(v_el).map_err(|e| e.to_string())?;
            entries.push(ResultEntry { site, key, value });
        }
        Ok(ResultDoc { agent_id, status, entries, instructions })
    }

    /// Parse from a document string.
    pub fn from_document_str(doc: &str) -> Result<ResultDoc, String> {
        let root = Element::parse_str(doc).map_err(|e| e.to_string())?;
        Self::from_xml(&root)
    }

    /// Entries with a given key.
    pub fn entries_for<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a ResultEntry> {
        self.entries.iter().filter(move |e| e.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_vm::assemble;

    fn sample_pi() -> PackedInformation {
        let program = assemble(
            r#"
            .name ebank
            param "amount"
            emit "echo"
            halt
        "#,
        )
        .unwrap();
        PackedInformation {
            code_id: "ebank@dev1#1".into(),
            auth_key: "0123456789abcdef0123456789abcdef".into(),
            program,
            itinerary: vec!["bank-a".into(), "bank-b".into()],
            params: vec![
                ("amount".into(), Value::Int(12500)),
                ("memo".into(), Value::Str("rent & food <3".into())),
                ("flags".into(), Value::List(vec![Value::Bool(true), Value::Nil])),
            ],
            fuel_per_hop: 500_000,
        }
    }

    #[test]
    fn pi_roundtrip() {
        let pi = sample_pi();
        let doc = pi.to_document_string();
        let back = PackedInformation::from_document_str(&doc).unwrap();
        assert_eq!(back, pi);
    }

    #[test]
    fn hostile_nesting_is_rejected_not_fatal() {
        // The dispatch path parses whatever document a device sealed.
        let doc = format!("<pi>{}{}</pi>", "<a>".repeat(100_000), "</a>".repeat(100_000));
        let err = PackedInformation::from_document_str(&doc).unwrap_err();
        assert!(err.contains("nest deeper"), "{err}");
    }

    #[test]
    fn pi_accepts_compact_program_format_too() {
        // A PI whose <ma-code> uses the dense pdac-1 encoding (e.g. built by
        // third-party tooling) must parse identically — the gateway promises
        // format interoperability, not one blessed encoding.
        let pi = sample_pi();
        let mut el = Element::new("pi").with_attr("version", "1");
        el.push_child(
            Element::new("auth").with_attr("id", &pi.code_id).with_attr("key", &pi.auth_key),
        );
        el.push_child(pi.program.to_xml_compact());
        let mut itin = Element::new("itinerary");
        for site in &pi.itinerary {
            itin.push_child(Element::new("site").with_text(site.clone()));
        }
        el.push_child(itin);
        let mut params = Element::new("params");
        for (name, value) in &pi.params {
            let mut p = Element::new("param").with_attr("name", name);
            p.push_child(value_to_xml(value));
            params.push_child(p);
        }
        el.push_child(params);
        el.push_child(Element::new("options").with_attr("fuel", pi.fuel_per_hop.to_string()));
        let parsed = PackedInformation::from_document_str(&el.to_document_string()).unwrap();
        assert_eq!(parsed, pi);
    }

    #[test]
    fn pi_size_is_modest() {
        // The whole PI for a 2-site e-banking launch stays in the paper's
        // "1KB to 8KB" range before compression.
        let doc = sample_pi().to_document_string();
        assert!(doc.len() < 8 * 1024, "PI is {} bytes", doc.len());
    }

    #[test]
    fn value_xml_roundtrip_all_types() {
        for v in [
            Value::Nil,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-99),
            Value::Str("x <&> y".into()),
            Value::List(vec![Value::Int(1), Value::List(vec![Value::Str("deep".into())])]),
        ] {
            let el = value_to_xml(&v);
            let doc = el.to_document_string();
            let parsed = Element::parse_str(&doc).unwrap();
            assert_eq!(value_from_xml(&parsed).unwrap(), v);
        }
    }

    #[test]
    fn value_xml_rejects_garbage() {
        let el = Element::new("v").with_attr("t", "int").with_text("not-a-number");
        assert!(value_from_xml(&el).is_err());
        let el = Element::new("v").with_attr("t", "alien");
        assert!(value_from_xml(&el).is_err());
        let el = Element::new("w").with_attr("t", "int");
        assert!(value_from_xml(&el).is_err());
        let el = Element::new("v");
        assert!(value_from_xml(&el).is_err());
    }

    #[test]
    fn pi_future_version_rejected_cleanly() {
        let doc = sample_pi().to_document_string().replace("version=\"1\"", "version=\"2\"");
        let err = PackedInformation::from_document_str(&doc).unwrap_err();
        assert!(err.contains("unsupported PI version"), "{err}");
    }

    #[test]
    fn pi_missing_pieces_rejected() {
        assert!(PackedInformation::from_document_str("<pi version=\"1\"/>").is_err());
        assert!(PackedInformation::from_document_str("<notpi/>").is_err());
        // Bad inner program.
        let doc = r#"<pi version="1"><auth id="a" key="k"/><ma-code name="x" format="pdac-1" size="3">!!!</ma-code><itinerary/></pi>"#;
        assert!(PackedInformation::from_document_str(doc).is_err());
    }

    #[test]
    fn pi_defaults_fuel_when_options_absent() {
        let mut pi = sample_pi();
        pi.fuel_per_hop = 1_000_000;
        let mut el = Element::new("pi").with_attr("version", "1");
        el.push_child(
            Element::new("auth").with_attr("id", &pi.code_id).with_attr("key", &pi.auth_key),
        );
        el.push_child(pi.program.to_xml());
        let mut itin = Element::new("itinerary");
        for site in &pi.itinerary {
            itin.push_child(Element::new("site").with_text(site.clone()));
        }
        el.push_child(itin);
        let parsed =
            PackedInformation::from_document_str(&el.to_document_string()).unwrap();
        assert_eq!(parsed.fuel_per_hop, 1_000_000);
        assert!(parsed.params.is_empty());
    }

    #[test]
    fn result_doc_roundtrip() {
        let doc = ResultDoc {
            agent_id: "ag-7".into(),
            status: ResultStatus::Completed,
            entries: vec![
                ResultEntry {
                    site: "bank-a".into(),
                    key: "receipt".into(),
                    value: Value::Str("r-1".into()),
                },
                ResultEntry {
                    site: "bank-b".into(),
                    key: "balance".into(),
                    value: Value::Int(420_000),
                },
            ],
            instructions: 777,
        };
        let s = doc.to_document_string();
        assert_eq!(ResultDoc::from_document_str(&s).unwrap(), doc);
    }

    #[test]
    fn result_status_derived_from_agent() {
        use pdagent_mas::{AgentId, Itinerary};
        let prog = assemble("halt").unwrap();
        let mut agent = MobileAgent::new(
            AgentId("a".into()),
            prog,
            vec![],
            Itinerary::new(["s"]),
            0,
        );
        assert_eq!(ResultDoc::from_agent(&agent).status, ResultStatus::Completed);
        agent.push_result("s", "error", Value::Str("boom".into()));
        assert_eq!(ResultDoc::from_agent(&agent).status, ResultStatus::Failed);
        agent.push_result("s", "retracted", Value::Bool(true));
        assert_eq!(ResultDoc::from_agent(&agent).status, ResultStatus::Retracted);
    }

    #[test]
    fn entries_for_filters_by_key() {
        let doc = ResultDoc {
            agent_id: "a".into(),
            status: ResultStatus::Completed,
            entries: vec![
                ResultEntry { site: "s1".into(), key: "r".into(), value: Value::Int(1) },
                ResultEntry { site: "s2".into(), key: "other".into(), value: Value::Int(2) },
                ResultEntry { site: "s2".into(), key: "r".into(), value: Value::Int(3) },
            ],
            instructions: 0,
        };
        let rs: Vec<i64> =
            doc.entries_for("r").map(|e| e.value.as_int().unwrap()).collect();
        assert_eq!(rs, vec![1, 3]);
    }
}
