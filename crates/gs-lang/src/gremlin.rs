//! Gremlin front-end: parses a practical subset of the Gremlin traversal
//! language into the *same* GraphIR the Cypher front-end targets — the
//! paper's central interactive-stack claim (§5.1).
//!
//! Supported steps:
//!
//! ```text
//! g.V().hasLabel('L')                       source + label filter (required)
//! .has('prop', v) / .has('prop', gt(v))     property filters (eq/neq/gt/gte/lt/lte/within([..]))
//! .out('E') / .in('E') / .both('E')         fused neighbour expansion
//! .outE('E') / .inE('E')                    edge expansion
//! .inV() / .outV() / .otherV()              edge → endpoint
//! .as('x')  .select('x')                    tagging / re-selection
//! .values('prop')                           property projection
//! .where(__.out('E').hasId(x)) — not supported; use has() forms
//! .count() .dedup() .limit(n)
//! .order().by('prop') / .by('prop', decr)
//! .groupCount().by('prop')
//! .path() — not supported
//! ```

use crate::lexer::{tokenize, Cursor, Token};
use gs_graph::schema::GraphSchema;
use gs_graph::{GraphError, Result, Value};
use gs_grin::Direction;
use gs_ir::logical::ProjectItem;
use gs_ir::{AggFunc, BinOp, Expr, LogicalPlan, PlanBuilder};

/// Parses a Gremlin traversal into a logical plan.
pub fn parse_gremlin(src: &str, schema: &GraphSchema) -> Result<LogicalPlan> {
    let mut cur = Cursor::new(tokenize(src)?);
    // g.V()
    let g = cur.ident()?;
    if g != "g" {
        return Err(GraphError::Query("traversal must start with g".into()));
    }
    cur.expect(&Token::Dot)?;
    let v = cur.ident()?;
    if v != "V" {
        return Err(GraphError::Query("only g.V() sources are supported".into()));
    }
    cur.expect(&Token::LParen)?;
    cur.expect(&Token::RParen)?;

    let mut state = Traversal::new(schema);
    while cur.eat(&Token::Dot) {
        let step = cur.ident()?;
        cur.expect(&Token::LParen)?;
        state.apply_step(&step, &mut cur)?;
    }
    if !cur.at_eof() {
        return Err(GraphError::Query(format!(
            "trailing tokens: {:?}",
            cur.peek()
        )));
    }
    let plan = state.finish()?;
    // Frontend boundary check, mirroring the Cypher frontend: verifier
    // errors are frontend bugs and must not escape; warnings pass.
    gs_ir::verify_logical(&plan, schema).check("gremlin frontend")?;
    Ok(plan)
}

/// Builder-driving state: tracks the "current" element alias like the
/// Gremlin traverser does.
struct Traversal {
    builder: Option<PlanBuilder>,
    /// The alias holding the traverser's current element.
    head: String,
    /// Source label filter seen (hasLabel) — scans are deferred until the
    /// label is known.
    scanned: bool,
    fresh: usize,
    /// Set by terminal projection steps (values/count/groupCount): the
    /// layout already IS the result shape.
    terminal: bool,
}

impl Traversal {
    fn new(schema: &GraphSchema) -> Self {
        Self {
            builder: Some(PlanBuilder::new(schema)),
            head: String::new(),
            scanned: false,
            fresh: 0,
            terminal: false,
        }
    }

    fn b(&mut self) -> PlanBuilder {
        self.builder.take().expect("builder present")
    }

    fn put(&mut self, b: PlanBuilder) {
        self.builder = Some(b);
    }

    fn fresh_alias(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("__{prefix}{}", self.fresh)
    }

    fn need_scan(&self) -> Result<()> {
        if !self.scanned {
            return Err(GraphError::Query(
                "traversal must start with g.V().hasLabel('...')".into(),
            ));
        }
        Ok(())
    }

    fn apply_step(&mut self, step: &str, cur: &mut Cursor) -> Result<()> {
        match step {
            "hasLabel" => {
                let label = expect_str(cur)?;
                cur.expect(&Token::RParen)?;
                if self.scanned {
                    return Err(GraphError::Query("hasLabel() after traversal start".into()));
                }
                let alias = self.fresh_alias("v");
                let b = self.b().scan(&alias, &label)?;
                self.put(b);
                self.head = alias;
                self.scanned = true;
            }
            "has" => {
                self.need_scan()?;
                let prop = expect_str(cur)?;
                cur.expect(&Token::Comma)?;
                let (op, value) = parse_gremlin_predicate(cur)?;
                cur.expect(&Token::RParen)?;
                let b = self.b();
                let lhs = b.prop(&self.head, &prop)?;
                let pred = match op {
                    GremlinOp::Within(list) => Expr::In {
                        expr: Box::new(lhs),
                        list: Box::new(Expr::Const(Value::List(list))),
                    },
                    GremlinOp::Cmp(op) => Expr::bin(op, lhs, Expr::Const(value)),
                };
                self.put(b.select(pred));
            }
            "hasId" => {
                self.need_scan()?;
                let v = parse_value_token(cur)?;
                cur.expect(&Token::RParen)?;
                let b = self.b();
                let lhs = b.prop(&self.head, "id")?;
                self.put(b.select(Expr::bin(BinOp::Eq, lhs, Expr::Const(v))));
            }
            "out" | "in" | "both" => {
                self.need_scan()?;
                let elabel = expect_str(cur)?;
                cur.expect(&Token::RParen)?;
                let dir = match step {
                    "out" => Direction::Out,
                    "in" => Direction::In,
                    _ => Direction::Both,
                };
                let e = self.fresh_alias("e");
                let v = self.fresh_alias("v");
                let b = self
                    .b()
                    .expand_edge(&self.head, &elabel, dir, &e)?
                    .get_vertex(&e, &v)?;
                self.put(b);
                self.head = v;
            }
            "outE" | "inE" => {
                self.need_scan()?;
                let elabel = expect_str(cur)?;
                cur.expect(&Token::RParen)?;
                let dir = if step == "outE" {
                    Direction::Out
                } else {
                    Direction::In
                };
                let e = self.fresh_alias("e");
                let b = self.b().expand_edge(&self.head, &elabel, dir, &e)?;
                self.put(b);
                self.head = e;
            }
            "inV" | "outV" | "otherV" => {
                // our edges are traversal-oriented: otherV == far endpoint
                cur.expect(&Token::RParen)?;
                let v = self.fresh_alias("v");
                let b = self.b().get_vertex(&self.head, &v)?;
                self.put(b);
                self.head = v;
            }
            "as" => {
                self.need_scan()?;
                let name = expect_str(cur)?;
                cur.expect(&Token::RParen)?;
                // re-alias the head column by projecting? cheaper: remember
                // the mapping — we instead project all existing columns and
                // rename head. Simpler approach: keep a tag map.
                // We implement as() by projecting identity with the new name
                // appended via dedup-free rename: retain all columns.
                let b = self.b();
                let layout = b.layout().clone();
                let mut items: Vec<(ProjectItem, String)> = Vec::new();
                for (i, a) in layout.aliases().enumerate() {
                    items.push((ProjectItem::Expr(Expr::Column(i)), a.to_string()));
                }
                items.push((
                    ProjectItem::Expr(Expr::Column(layout.require(&self.head)?)),
                    name.clone(),
                ));
                let b = b.project(
                    items
                        .iter()
                        .map(|(it, n)| (it.clone(), n.as_str()))
                        .collect(),
                )?;
                self.put(b);
                self.head = name;
            }
            "select" => {
                self.need_scan()?;
                let name = expect_str(cur)?;
                cur.expect(&Token::RParen)?;
                let b = self.b();
                b.layout().require(&name)?;
                self.put(b);
                self.head = name;
            }
            "values" => {
                self.need_scan()?;
                let prop = expect_str(cur)?;
                cur.expect(&Token::RParen)?;
                let b = self.b();
                let e = b.prop(&self.head, &prop)?;
                let alias = self.fresh_alias("s");
                let b = b.project(vec![(ProjectItem::Expr(e), alias.as_str())])?;
                self.put(b);
                self.head = alias;
                self.terminal = true;
            }
            "count" => {
                cur.expect(&Token::RParen)?;
                let b = self.b();
                let col = b.col(&self.head)?;
                let b = b.project(vec![(ProjectItem::Agg(AggFunc::Count, col), "count")])?;
                self.put(b);
                self.head = "count".into();
                self.terminal = true;
            }
            "groupCount" => {
                cur.expect(&Token::RParen)?;
                // must be followed by .by('prop')
                cur.expect(&Token::Dot)?;
                let by = cur.ident()?;
                if by != "by" {
                    return Err(GraphError::Query("groupCount() requires .by()".into()));
                }
                cur.expect(&Token::LParen)?;
                let prop = expect_str(cur)?;
                cur.expect(&Token::RParen)?;
                let b = self.b();
                let key = b.prop(&self.head, &prop)?;
                let cnt = b.col(&self.head)?;
                let b = b.project(vec![
                    (ProjectItem::Expr(key), "key"),
                    (ProjectItem::Agg(AggFunc::Count, cnt), "count"),
                ])?;
                self.put(b);
                self.head = "key".into();
                self.terminal = true;
            }
            "order" => {
                cur.expect(&Token::RParen)?;
                let mut keys = Vec::new();
                let mut limit = None;
                while cur.peek() == &Token::Dot {
                    // look ahead for by(...) / limit(n)
                    let save_head = self.head.clone();
                    let _ = save_head;
                    if !matches!(cur.peek2(), Token::Ident(s) if s == "by" || s == "limit") {
                        break;
                    }
                    cur.next(); // dot
                    let word = cur.ident()?;
                    cur.expect(&Token::LParen)?;
                    if word == "by" {
                        let prop = expect_str(cur)?;
                        let desc = if cur.eat(&Token::Comma) {
                            let ord = cur.ident()?;
                            ord == "decr" || ord == "desc"
                        } else {
                            false
                        };
                        cur.expect(&Token::RParen)?;
                        let b = self.builder.as_ref().unwrap();
                        keys.push((b.prop(&self.head, &prop)?, !desc));
                    } else {
                        limit = Some(match cur.next() {
                            Token::Int(n) if n >= 0 => n as usize,
                            t => return Err(GraphError::Query(format!("bad limit {t:?}"))),
                        });
                        cur.expect(&Token::RParen)?;
                        break;
                    }
                }
                if keys.is_empty() {
                    let b = self.builder.as_ref().unwrap();
                    keys.push((b.col(&self.head)?, true));
                }
                let b = self.b().order(keys, limit);
                self.put(b);
            }
            "limit" => {
                let n = match cur.next() {
                    Token::Int(n) if n >= 0 => n as usize,
                    t => return Err(GraphError::Query(format!("bad limit {t:?}"))),
                };
                cur.expect(&Token::RParen)?;
                let b = self.b().limit(n);
                self.put(b);
            }
            "dedup" => {
                cur.expect(&Token::RParen)?;
                let head = self.head.clone();
                let b = self.b().dedup(&[head.as_str()])?;
                self.put(b);
            }
            other => {
                return Err(GraphError::Query(format!(
                    "unsupported Gremlin step `{other}`"
                )))
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<LogicalPlan> {
        self.need_scan()?;
        // project down to the head element unless the last op already
        // projected (count/values/groupCount leave a scalar layout)
        let b = self.b();
        let layout = b.layout().clone();
        let plan = if self.terminal || layout.width() == 1 {
            b.build()
        } else {
            let head = self.head.clone();
            let col = layout.require(&head)?;
            b.project(vec![(ProjectItem::Expr(Expr::Column(col)), head.as_str())])?
                .build()
        };
        Ok(plan)
    }
}

enum GremlinOp {
    Cmp(BinOp),
    Within(Vec<Value>),
}

fn expect_str(cur: &mut Cursor) -> Result<String> {
    match cur.next() {
        Token::Str(s) => Ok(s),
        t => Err(GraphError::Query(format!("expected string, found {t:?}"))),
    }
}

fn parse_value_token(cur: &mut Cursor) -> Result<Value> {
    match cur.next() {
        Token::Int(i) => Ok(Value::Int(i)),
        Token::Float(f) => Ok(Value::Float(f)),
        Token::Str(s) => Ok(Value::Str(s)),
        Token::Ident(s) if s == "true" => Ok(Value::Bool(true)),
        Token::Ident(s) if s == "false" => Ok(Value::Bool(false)),
        Token::Minus => match cur.next() {
            Token::Int(i) => Ok(Value::Int(-i)),
            Token::Float(f) => Ok(Value::Float(-f)),
            t => Err(GraphError::Query(format!("bad literal {t:?}"))),
        },
        t => Err(GraphError::Query(format!("expected value, found {t:?}"))),
    }
}

/// Parses `5`, `eq(5)`, `gt(5)`, `within([1,2])`-style predicates.
fn parse_gremlin_predicate(cur: &mut Cursor) -> Result<(GremlinOp, Value)> {
    if let Token::Ident(f) = cur.peek().clone() {
        if cur.peek2() == &Token::LParen {
            cur.next();
            cur.next();
            if f == "within" {
                let mut list = Vec::new();
                let bracketed = cur.eat(&Token::LBracket);
                loop {
                    list.push(parse_value_token(cur)?);
                    if !cur.eat(&Token::Comma) {
                        break;
                    }
                }
                if bracketed {
                    cur.expect(&Token::RBracket)?;
                }
                cur.expect(&Token::RParen)?;
                return Ok((GremlinOp::Within(list), Value::Null));
            }
            let op = match f.as_str() {
                "eq" => BinOp::Eq,
                "neq" => BinOp::Ne,
                "gt" => BinOp::Gt,
                "gte" => BinOp::Ge,
                "lt" => BinOp::Lt,
                "lte" => BinOp::Le,
                other => {
                    return Err(GraphError::Query(format!(
                        "unsupported predicate `{other}`"
                    )))
                }
            };
            let v = parse_value_token(cur)?;
            cur.expect(&Token::RParen)?;
            return Ok((GremlinOp::Cmp(op), v));
        }
    }
    let v = parse_value_token(cur)?;
    Ok((GremlinOp::Cmp(BinOp::Eq), v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_graph::ValueType;

    fn schema() -> GraphSchema {
        let mut s = GraphSchema::new();
        let person = s.add_vertex_label("Person", &[("age", ValueType::Int)]);
        let item = s.add_vertex_label("Item", &[("price", ValueType::Float)]);
        s.add_edge_label("BUY", person, item, &[("date", ValueType::Date)]);
        s.add_edge_label("KNOWS", person, person, &[]);
        s
    }

    #[test]
    fn basic_traversal() {
        let plan = parse_gremlin(
            "g.V().hasLabel('Person').out('KNOWS').out('BUY').values('price')",
            &schema(),
        )
        .unwrap();
        assert_eq!(plan.output_layout().width(), 1);
    }

    #[test]
    fn has_with_predicates() {
        for q in [
            "g.V().hasLabel('Person').has('age', 30).count()",
            "g.V().hasLabel('Person').has('age', gt(18)).count()",
            "g.V().hasLabel('Person').has('age', within([18, 21])).count()",
        ] {
            let plan = parse_gremlin(q, &schema()).unwrap();
            assert!(plan.ops.len() >= 3, "{q}");
        }
    }

    #[test]
    fn out_e_in_v_pair() {
        let plan = parse_gremlin(
            "g.V().hasLabel('Person').outE('BUY').inV().values('price')",
            &schema(),
        )
        .unwrap();
        // scan + expand + getvertex + project
        assert_eq!(plan.ops.len(), 4);
    }

    #[test]
    fn as_select_round_trip() {
        let plan = parse_gremlin(
            "g.V().hasLabel('Person').as('p').out('KNOWS').select('p')",
            &schema(),
        )
        .unwrap();
        assert_eq!(plan.output_layout().index_of("p"), Some(0));
    }

    #[test]
    fn order_by_desc_with_limit() {
        let plan = parse_gremlin(
            "g.V().hasLabel('Item').order().by('price', decr).limit(3)",
            &schema(),
        )
        .unwrap();
        let has_order = plan
            .ops
            .iter()
            .any(|op| matches!(op, gs_ir::LogicalOp::Order { limit: Some(3), .. }));
        assert!(has_order, "{:?}", plan.ops);
    }

    #[test]
    fn group_count() {
        let plan =
            parse_gremlin("g.V().hasLabel('Person').groupCount().by('age')", &schema()).unwrap();
        match plan.ops.last().unwrap() {
            gs_ir::LogicalOp::Project { items } => {
                assert_eq!(items.len(), 2);
                assert!(matches!(items[1].0, ProjectItem::Agg(AggFunc::Count, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_gremlin("h.V()", &schema()).is_err());
        assert!(parse_gremlin("g.V().out('KNOWS')", &schema()).is_err()); // no hasLabel
        assert!(parse_gremlin("g.V().hasLabel('Person').teleport()", &schema()).is_err());
        assert!(parse_gremlin("g.V().hasLabel('Nope')", &schema()).is_err());
    }
}
