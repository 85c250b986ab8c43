//! Cypher front-end: parses a practical subset of Cypher into GraphIR.
//!
//! Supported grammar (one statement):
//!
//! ```text
//! statement := (MATCH patterns [WHERE expr] | WITH items [WHERE expr])*
//!              RETURN [DISTINCT] items [ORDER BY key [ASC|DESC], ...] [LIMIT n]
//! patterns  := path (',' path)*
//! path      := node (edge node)*
//! node      := '(' [alias] [':' Label] ['{' prop ':' literal, ... '}'] ')'
//! edge      := '-[' [alias] [':' TYPE] [props] ']->' | '<-[..]-' | '-[..]-'
//! items     := expr [AS alias] | COUNT(*|expr) | SUM/AVG/MIN/MAX/COLLECT(expr)
//! ```
//!
//! Multiple `MATCH` clauses extend previously-bound aliases — the paper's §8
//! fraud query (two MATCHes joined through `v` with aggregating `WITH`
//! stages) parses end-to-end.
//!
//! Value literals and `$name` references reach the parser already folded
//! into single tokens by the statement-key pass (`crate::template`): bound
//! to their values on the literal path ([`parse_cypher`]), or as typed
//! parameter slots for a statement template.

use crate::lexer::{Cursor, Token};
use crate::template::cypher_tokens;
use gs_graph::schema::GraphSchema;
use gs_graph::{GraphError, Result, Value};
use gs_ir::logical::ProjectItem;
use gs_ir::{AggFunc, BinOp, Expr, LogicalPlan, Pattern, PlanBuilder};
use std::collections::HashMap;

/// Parses a Cypher statement into a logical plan with every value literal
/// inline; `$name` references take their values from `params`.
pub fn parse_cypher(
    src: &str,
    schema: &GraphSchema,
    params: &HashMap<String, Value>,
) -> Result<LogicalPlan> {
    parse(cypher_tokens(src, params, true)?, schema)
}

/// Parses a Cypher statement into its template's logical plan: each value
/// literal and `$name` is a typed parameter slot (`params` give the types
/// of `$name` slots).
pub(crate) fn parse_cypher_template(
    src: &str,
    schema: &GraphSchema,
    params: &HashMap<String, Value>,
) -> Result<LogicalPlan> {
    parse(cypher_tokens(src, params, false)?, schema)
}

fn parse(tokens: Vec<Token>, schema: &GraphSchema) -> Result<LogicalPlan> {
    let mut cur = Cursor::new(tokens);
    let mut builder = PlanBuilder::new(schema);
    let mut anon = 0usize;
    let mut saw_return = false;

    while !cur.at_eof() {
        if cur.eat(&Token::Semicolon) {
            continue;
        }
        if cur.eat_kw("MATCH") {
            let pattern = parse_patterns(&mut cur, &builder, &mut anon)?;
            builder = builder.match_pattern(pattern)?;
            if cur.eat_kw("WHERE") {
                let pred = parse_expr(&mut cur, &builder)?;
                builder = builder.select(pred);
            }
        } else if cur.eat_kw("WITH") {
            let items = parse_items(&mut cur, &builder)?;
            builder = builder.project(
                items
                    .iter()
                    .map(|(it, n)| (it.clone(), n.as_str()))
                    .collect(),
            )?;
            if cur.eat_kw("WHERE") {
                let pred = parse_expr(&mut cur, &builder)?;
                builder = builder.select(pred);
            }
        } else if cur.eat_kw("RETURN") {
            saw_return = true;
            let distinct = cur.eat_kw("DISTINCT");
            let items = parse_items(&mut cur, &builder)?;
            builder = builder.project(
                items
                    .iter()
                    .map(|(it, n)| (it.clone(), n.as_str()))
                    .collect(),
            )?;
            if distinct {
                builder = builder.dedup(&[])?;
            }
            if cur.eat_kw("ORDER") {
                if !cur.eat_kw("BY") {
                    return Err(GraphError::Query("expected BY after ORDER".into()));
                }
                let mut keys = Vec::new();
                loop {
                    let k = parse_expr(&mut cur, &builder)?;
                    let asc = if cur.eat_kw("DESC") {
                        false
                    } else {
                        cur.eat_kw("ASC");
                        true
                    };
                    keys.push((k, asc));
                    if !cur.eat(&Token::Comma) {
                        break;
                    }
                }
                let limit = if cur.eat_kw("LIMIT") {
                    Some(parse_usize(&mut cur)?)
                } else {
                    None
                };
                builder = builder.order(keys, limit);
            } else if cur.eat_kw("LIMIT") {
                let n = parse_usize(&mut cur)?;
                builder = builder.limit(n);
            }
        } else {
            return Err(GraphError::Query(format!(
                "unexpected token {:?} (expected MATCH/WITH/RETURN)",
                cur.peek()
            )));
        }
    }
    if !saw_return {
        return Err(GraphError::Query("statement has no RETURN clause".into()));
    }
    let plan = builder.build();
    // Frontend boundary check: a lowered plan with verifier *errors* never
    // leaves the frontend (warnings — plan smells — pass through).
    gs_ir::verify_logical(&plan, schema).check("cypher frontend")?;
    Ok(plan)
}

fn parse_usize(cur: &mut Cursor) -> Result<usize> {
    match cur.next() {
        Token::Int(n) if n >= 0 => Ok(n as usize),
        other => Err(GraphError::Query(format!(
            "expected count, found {other:?}"
        ))),
    }
}

// ---------------- patterns ----------------

struct RawNode {
    alias: String,
    label: Option<String>,
    props: Vec<(String, Expr)>,
}

struct RawEdge {
    alias: Option<String>,
    etype: String,
    props: Vec<(String, Expr)>,
    /// Left-to-right as written: Some(true) = `->`, Some(false) = `<-`,
    /// None = undirected.
    right: Option<bool>,
}

fn parse_patterns(cur: &mut Cursor, builder: &PlanBuilder, anon: &mut usize) -> Result<Pattern> {
    let mut nodes: Vec<RawNode> = Vec::new();
    let mut links: Vec<(usize, RawEdge, usize)> = Vec::new();

    let node_index = |nodes: &mut Vec<RawNode>, n: RawNode| -> usize {
        if let Some(i) = nodes.iter().position(|x| x.alias == n.alias) {
            // merge label/props info
            if nodes[i].label.is_none() {
                nodes[i].label = n.label;
            }
            nodes[i].props.extend(n.props);
            i
        } else {
            nodes.push(n);
            nodes.len() - 1
        }
    };

    loop {
        // one path
        let first = parse_node(cur, anon)?;
        let mut prev = node_index(&mut nodes, first);
        while matches!(cur.peek(), Token::Minus | Token::ArrowLeft) {
            let edge = parse_edge(cur)?;
            let node = parse_node(cur, anon)?;
            let ni = node_index(&mut nodes, node);
            links.push((prev, edge, ni));
            prev = ni;
        }
        if !cur.eat(&Token::Comma) {
            break;
        }
    }

    build_pattern(nodes, links, builder)
}

fn parse_node(cur: &mut Cursor, anon: &mut usize) -> Result<RawNode> {
    cur.expect(&Token::LParen)?;
    let alias = if let Token::Ident(_) = cur.peek() {
        cur.ident()?
    } else {
        *anon += 1;
        format!("__v{anon}")
    };
    let label = if cur.eat(&Token::Colon) {
        Some(cur.ident()?)
    } else {
        None
    };
    let props = if cur.peek() == &Token::LBrace {
        parse_prop_map(cur)?
    } else {
        Vec::new()
    };
    cur.expect(&Token::RParen)?;
    Ok(RawNode {
        alias,
        label,
        props,
    })
}

fn parse_edge(cur: &mut Cursor) -> Result<RawEdge> {
    // entry: either `-[` ... `]->` / `]-`  or  `<-[` ... `]-`
    let from_left = if cur.eat(&Token::ArrowLeft) {
        // `<-[`
        true
    } else {
        cur.expect(&Token::Minus)?;
        false
    };
    cur.expect(&Token::LBracket)?;
    let alias = if let Token::Ident(_) = cur.peek() {
        Some(cur.ident()?)
    } else {
        None
    };
    let etype = if cur.eat(&Token::Colon) {
        cur.ident()?
    } else {
        return Err(GraphError::Query(
            "pattern edges must specify a relationship type".into(),
        ));
    };
    let props = if cur.peek() == &Token::LBrace {
        parse_prop_map(cur)?
    } else {
        Vec::new()
    };
    cur.expect(&Token::RBracket)?;
    let right = if cur.eat(&Token::ArrowRight) {
        if from_left {
            return Err(GraphError::Query("edge has arrows on both ends".into()));
        }
        Some(true)
    } else {
        cur.expect(&Token::Minus)?;
        if from_left {
            Some(false)
        } else {
            None // undirected
        }
    };
    Ok(RawEdge {
        alias,
        etype,
        props,
        right,
    })
}

fn parse_prop_map(cur: &mut Cursor) -> Result<Vec<(String, Expr)>> {
    cur.expect(&Token::LBrace)?;
    let mut out = Vec::new();
    loop {
        let key = cur.ident()?;
        cur.expect(&Token::Colon)?;
        let v = parse_value(cur)?;
        out.push((key, v));
        if !cur.eat(&Token::Comma) {
            break;
        }
    }
    cur.expect(&Token::RBrace)?;
    Ok(out)
}

/// A value: one literal the statement-key pass folded into a token.
fn parse_value(cur: &mut Cursor) -> Result<Expr> {
    match cur.next() {
        Token::Value(v) => Ok(Expr::Const(v)),
        Token::Slot(slot) => Ok(Expr::Param(slot)),
        other => Err(GraphError::Query(format!(
            "expected literal, found {other:?}"
        ))),
    }
}

/// Resolves labels (with inference through edge endpoint constraints) and
/// assembles the [`Pattern`].
fn build_pattern(
    nodes: Vec<RawNode>,
    links: Vec<(usize, RawEdge, usize)>,
    builder: &PlanBuilder,
) -> Result<Pattern> {
    let schema = builder.schema();
    let mut labels: Vec<Option<gs_graph::LabelId>> = nodes
        .iter()
        .map(|n| {
            // explicit label, or an existing binding from a previous MATCH
            if let Some(l) = &n.label {
                builder.resolve_vlabel(l).map(Some)
            } else if let Ok(l) = builder.layout().vertex_label(&n.alias) {
                Ok(Some(l))
            } else {
                Ok(None)
            }
        })
        .collect::<Result<Vec<_>>>()?;

    // infer unknown labels from edge endpoint constraints to fixpoint
    loop {
        let mut changed = false;
        for (li, e, ri) in &links {
            let def = schema
                .edge_label_by_name(&e.etype)
                .ok_or_else(|| GraphError::Query(format!("unknown edge type `{}`", e.etype)))?;
            let (src_i, dst_i) = match e.right {
                Some(true) => (*li, *ri),
                Some(false) => (*ri, *li),
                None => {
                    // undirected: only infer when unambiguous (homogeneous)
                    if def.src == def.dst {
                        (*li, *ri)
                    } else {
                        continue;
                    }
                }
            };
            if labels[src_i].is_none() {
                labels[src_i] = Some(def.src);
                changed = true;
            }
            if labels[dst_i].is_none() {
                labels[dst_i] = Some(def.dst);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut pattern = Pattern::new();
    for (i, n) in nodes.iter().enumerate() {
        let label = labels[i].ok_or_else(|| {
            GraphError::Query(format!(
                "cannot infer label for pattern vertex `{}`",
                n.alias
            ))
        })?;
        let vi = pattern.add_vertex(&n.alias, label);
        for (k, v) in &n.props {
            let pred = if let Some(p) = schema.vertex_property(label, k) {
                Expr::bin(
                    BinOp::Eq,
                    Expr::VertexProp {
                        col: 0,
                        label,
                        prop: p.id,
                    },
                    v.clone(),
                )
            } else if k == "id" {
                Expr::bin(BinOp::Eq, Expr::VertexId { col: 0, label }, v.clone())
            } else {
                return Err(GraphError::Query(format!("unknown property `{k}`")));
            };
            pattern.and_vertex_predicate(vi, pred);
        }
    }
    for (li, e, ri) in links {
        let def = schema.edge_label_by_name(&e.etype).unwrap().clone();
        let (src_i, dst_i) = match e.right {
            Some(true) => (li, ri),
            Some(false) => (ri, li),
            // Undirected edges compile as written; datasets store symmetric
            // relations (e.g. SNB KNOWS) in both directions, giving Cypher's
            // both-orientation semantics with Out expansion.
            None => (li, ri),
        };
        let src_vi = pattern.vertex_index(&nodes[src_i].alias).unwrap();
        let dst_vi = pattern.vertex_index(&nodes[dst_i].alias).unwrap();
        let ei = pattern.add_edge(e.alias.as_deref(), def.id, src_vi, dst_vi);
        for (k, v) in &e.props {
            let p = schema
                .edge_property(def.id, k)
                .ok_or_else(|| GraphError::Query(format!("unknown edge property `{k}`")))?;
            let pred = Expr::bin(
                BinOp::Eq,
                Expr::EdgeProp {
                    col: 0,
                    label: def.id,
                    prop: p.id,
                },
                v.clone(),
            );
            pattern.and_edge_predicate(ei, pred);
        }
    }
    Ok(pattern)
}

// ---------------- items & expressions ----------------

fn parse_items(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Vec<(ProjectItem, String)>> {
    let mut items = Vec::new();
    loop {
        let (item, default_name) = parse_item(cur, builder)?;
        let name = if cur.eat_kw("AS") {
            cur.ident()?
        } else {
            default_name
                .ok_or_else(|| GraphError::Query("complex projection item needs AS alias".into()))?
        };
        items.push((item, name));
        if !cur.eat(&Token::Comma) {
            break;
        }
    }
    Ok(items)
}

fn agg_func(name: &str) -> Option<AggFunc> {
    match name.to_ascii_lowercase().as_str() {
        "count" => Some(AggFunc::Count),
        "sum" => Some(AggFunc::Sum),
        "avg" => Some(AggFunc::Avg),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        "collect" => Some(AggFunc::Collect),
        _ => None,
    }
}

fn parse_item(cur: &mut Cursor, builder: &PlanBuilder) -> Result<(ProjectItem, Option<String>)> {
    // aggregate?
    if let Token::Ident(name) = cur.peek() {
        if let Some(f) = agg_func(name) {
            if cur.peek2() == &Token::LParen {
                cur.next(); // name
                cur.next(); // (
                let distinct = cur.eat_kw("DISTINCT");
                let f = if distinct && matches!(f, AggFunc::Count) {
                    AggFunc::CountDistinct
                } else {
                    f
                };
                let inner = if cur.eat(&Token::Star) {
                    Expr::Const(Value::Int(1))
                } else {
                    parse_expr(cur, builder)?
                };
                cur.expect(&Token::RParen)?;
                return Ok((ProjectItem::Agg(f, inner), None));
            }
        }
    }
    // a bare alias reference keeps its own name; anything else needs AS
    let default = match (cur.peek(), cur.peek2()) {
        (Token::Ident(a), t) if t != &Token::LParen && t != &Token::Dot => Some(a.clone()),
        _ => None,
    };
    let e = parse_expr(cur, builder)?;
    Ok((ProjectItem::Expr(e), default))
}

/// Pratt-style expression parser bound against the builder's layout.
pub(crate) fn parse_expr(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    parse_or(cur, builder)
}

fn parse_or(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    let mut lhs = parse_and(cur, builder)?;
    while cur.eat_kw("OR") {
        let rhs = parse_and(cur, builder)?;
        lhs = Expr::bin(BinOp::Or, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_and(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    let mut lhs = parse_not(cur, builder)?;
    while cur.eat_kw("AND") {
        let rhs = parse_not(cur, builder)?;
        lhs = Expr::bin(BinOp::And, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_not(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    if cur.eat_kw("NOT") {
        Ok(Expr::Not(Box::new(parse_not(cur, builder)?)))
    } else {
        parse_cmp(cur, builder)
    }
}

fn parse_cmp(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    let lhs = parse_add(cur, builder)?;
    let op = match cur.peek() {
        Token::Eq => BinOp::Eq,
        Token::Ne => BinOp::Ne,
        Token::Lt => BinOp::Lt,
        Token::Le => BinOp::Le,
        Token::Gt => BinOp::Gt,
        Token::Ge => BinOp::Ge,
        Token::Ident(s) if s.eq_ignore_ascii_case("IN") => {
            cur.next();
            // a scalar is a one-element list
            let list = match parse_value(cur)? {
                Expr::Const(v @ Value::List(_)) => Expr::Const(v),
                Expr::Const(single) => Expr::Const(Value::List(vec![single])),
                slot => slot,
            };
            return Ok(Expr::In {
                expr: Box::new(lhs),
                list: Box::new(list),
            });
        }
        _ => return Ok(lhs),
    };
    cur.next();
    let rhs = parse_add(cur, builder)?;
    Ok(Expr::bin(op, lhs, rhs))
}

fn parse_add(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    let mut lhs = parse_mul(cur, builder)?;
    loop {
        let op = match cur.peek() {
            Token::Plus => BinOp::Add,
            Token::Minus => BinOp::Sub,
            _ => break,
        };
        cur.next();
        let rhs = parse_mul(cur, builder)?;
        lhs = Expr::bin(op, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_mul(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    let mut lhs = parse_atom(cur, builder)?;
    loop {
        let op = match cur.peek() {
            Token::Star => BinOp::Mul,
            Token::Slash => BinOp::Div,
            _ => break,
        };
        cur.next();
        let rhs = parse_atom(cur, builder)?;
        lhs = Expr::bin(op, lhs, rhs);
    }
    Ok(lhs)
}

fn parse_atom(cur: &mut Cursor, builder: &PlanBuilder) -> Result<Expr> {
    match cur.peek().clone() {
        Token::LParen => {
            cur.next();
            let e = parse_expr(cur, builder)?;
            cur.expect(&Token::RParen)?;
            Ok(e)
        }
        Token::Ident(name) => {
            // id(v) function form
            if name.eq_ignore_ascii_case("id") && cur.peek2() == &Token::LParen {
                cur.next();
                cur.next();
                let alias = cur.ident()?;
                cur.expect(&Token::RParen)?;
                return builder.prop(&alias, "id");
            }
            if agg_func(&name).is_some() && cur.peek2() == &Token::LParen {
                return Err(GraphError::Query(
                    "aggregates are only allowed as projection items".into(),
                ));
            }
            cur.next();
            if cur.eat(&Token::Dot) {
                let prop = cur.ident()?;
                builder.prop(&name, &prop)
            } else {
                builder.col(&name)
            }
        }
        _ => parse_value(cur),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::ValueType;

    fn schema() -> GraphSchema {
        let mut s = GraphSchema::new();
        let account = s.add_vertex_label("Account", &[("name", ValueType::Str)]);
        let item = s.add_vertex_label("Item", &[("price", ValueType::Float)]);
        s.add_edge_label("BUY", account, item, &[("date", ValueType::Date)]);
        s.add_edge_label("KNOWS", account, account, &[]);
        s
    }

    fn parse(q: &str) -> Result<LogicalPlan> {
        parse_cypher(q, &schema(), &HashMap::new())
    }

    #[test]
    fn simple_match_return() {
        let plan = parse("MATCH (a:Account) RETURN a").unwrap();
        assert_eq!(plan.output_layout().width(), 1);
        assert_eq!(plan.output_layout().index_of("a"), Some(0));
    }

    #[test]
    fn path_with_inference_and_props() {
        let plan = parse(
            "MATCH (a:Account {name: 'A1'})-[b:BUY]->(i) WHERE i.price > 5.0 RETURN a, i.price AS p",
        )
        .unwrap();
        // anonymous-less: a, b, i bound; i inferred as Item
        let names: Vec<&str> = plan.output_layout().aliases().collect();
        assert_eq!(names, vec!["a", "p"]);
        assert!(matches!(
            plan.ops.last().unwrap(),
            gs_ir::LogicalOp::Project { .. }
        ));
    }

    #[test]
    fn reversed_arrow_and_shared_vertex() {
        // the paper's co-purchase shape
        let plan = parse(
            "MATCH (v:Account)-[b1:BUY]->(i:Item)<-[b2:BUY]-(s:Account) \
             WHERE b1.date - b2.date < 5 RETURN v, COUNT(s) AS cnt",
        )
        .unwrap();
        match &plan.ops[0] {
            gs_ir::LogicalOp::Match { pattern } => {
                assert_eq!(pattern.vertices.len(), 3);
                assert_eq!(pattern.edges.len(), 2);
                // both BUY edges point INTO the item
                let item = pattern.vertex_index("i").unwrap();
                assert!(pattern.edges.iter().all(|e| e.dst == item));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn with_aggregation_pipeline() {
        let plan = parse(
            "MATCH (v:Account)-[:KNOWS]-(f:Account) \
             WITH v, COUNT(f) AS friends WHERE friends > 3 \
             RETURN v, friends ORDER BY friends DESC LIMIT 10",
        )
        .unwrap();
        let kinds: Vec<&str> = plan
            .ops
            .iter()
            .map(|op| match op {
                gs_ir::LogicalOp::Match { .. } => "match",
                gs_ir::LogicalOp::Project { .. } => "project",
                gs_ir::LogicalOp::Select { .. } => "select",
                gs_ir::LogicalOp::Order { .. } => "order",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["match", "project", "select", "project", "order"]
        );
    }

    #[test]
    fn params_resolve() {
        let mut params = HashMap::new();
        params.insert(
            "seeds".to_string(),
            Value::List(vec![Value::Int(1), Value::Int(2)]),
        );
        let plan = parse_cypher(
            "MATCH (a:Account) WHERE a.id IN $seeds RETURN a",
            &schema(),
            &params,
        )
        .unwrap();
        assert_eq!(plan.ops.len(), 3);
        // missing param errors
        assert!(parse("MATCH (a:Account) WHERE a.id IN $nope RETURN a").is_err());
    }

    #[test]
    fn count_star_and_distinct() {
        let plan = parse("MATCH (a:Account) RETURN COUNT(*) AS n").unwrap();
        match &plan.ops[1] {
            gs_ir::LogicalOp::Project { items } => {
                assert!(matches!(items[0].0, ProjectItem::Agg(AggFunc::Count, _)));
            }
            _ => panic!(),
        }
        let plan2 = parse("MATCH (a:Account)-[:KNOWS]-(b) RETURN COUNT(DISTINCT b) AS n").unwrap();
        match &plan2.ops[1] {
            gs_ir::LogicalOp::Project { items } => {
                assert!(matches!(
                    items[0].0,
                    ProjectItem::Agg(AggFunc::CountDistinct, _)
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("MATCH (a:Ghost) RETURN a").is_err()); // unknown label
        assert!(parse("MATCH (a:Account) RETURN").is_err()); // missing items
        assert!(parse("MATCH (a:Account)").is_err()); // no RETURN
        assert!(parse("MATCH (a)-[]->(b) RETURN a").is_err()); // untyped edge
        assert!(parse("FOO").is_err());
    }

    #[test]
    fn fraud_query_full_shape_parses() {
        let mut params = HashMap::new();
        params.insert(
            "SEEDS".to_string(),
            Value::List(vec![Value::Int(3), Value::Int(97)]),
        );
        let q = "MATCH (v:Account {id: 1})-[b1:BUY]->(:Item)<-[b2:BUY]-(s:Account) \
                 WHERE s.id IN $SEEDS AND b1.date - b2.date < 5 \
                 WITH v, COUNT(s) AS cnt1 \
                 MATCH (v)-[:KNOWS]-(f:Account), (f)-[b3:BUY]->(:Item)<-[b4:BUY]-(s2:Account) \
                 WHERE s2.id IN $SEEDS \
                 WITH v, cnt1, COUNT(s2) AS cnt2 \
                 WHERE 2 * cnt1 + 1 * cnt2 > 3 \
                 RETURN v";
        let plan = parse_cypher(q, &schema(), &params).unwrap();
        assert!(plan.ops.len() >= 7);
        assert_eq!(plan.output_layout().index_of("v"), Some(0));
    }
}
