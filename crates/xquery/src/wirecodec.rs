//! [`wire`] codec impls for the typed update API and the expression AST it
//! embeds — an encoded [`UpdateBatch`] is **the WAL record payload**: the
//! durable journal stores exactly the ordered op sequence the maintenance
//! stack applies, so recovery replays through the same `apply_batch` path
//! as live ingestion.
//!
//! The full [`Expr`] grammar is covered (not just the comparison subset
//! update filters use today), so any AST a parsed statement can carry
//! round-trips losslessly. [`UpdateOp`] and [`UpdateBatch`] keep their
//! fields private, so their impls are written out by hand.

use crate::ast::{
    AggFunc, AttrValue, Axis, BoolExpr, CmpOp, ElemCons, Expr, Flwor, ForBind, NodeTest, OrderSpec,
    PathExpr, PathSource, Step, StepPredicate,
};
use crate::ops::{InsertPosition, OpAction, UpdateBatch, UpdateOp};
use wire::{codec, put_slice, Decode, Encode, Reader, WireError};

codec!(enum Axis { 0 => Child, 1 => Descendant });
codec!(enum NodeTest { 0 => Name(n), 1 => Attr(n), 2 => Text, 3 => Wildcard });
codec!(enum StepPredicate { 0 => Cmp { path, op, value }, 1 => Position(p) });
codec!(struct Step { axis, test, predicate });
codec!(enum PathSource { 0 => Doc(d), 1 => Var(v) });
codec!(struct PathExpr { source, steps });
codec!(enum CmpOp { 0 => Eq, 1 => Ne, 2 => Lt, 3 => Le, 4 => Gt, 5 => Ge });
codec!(enum AggFunc { 0 => Count, 1 => Sum, 2 => Avg, 3 => Min, 4 => Max });
codec!(enum BoolExpr { 0 => Cmp { lhs, op, rhs }, 1 => And(a, b) });
codec!(struct OrderSpec { expr, descending });
codec!(struct ForBind { var, source });
codec!(struct Flwor { fors, lets, where_, order_by, ret });
codec!(enum AttrValue { 0 => Literal(s), 1 => Expr(e) });
codec!(struct ElemCons { name, attrs, children });
codec!(enum Expr {
    0 => Path(p),
    1 => Var(v),
    2 => DistinctValues(e),
    3 => Agg { func, arg },
    4 => Flwor(f),
    5 => Elem(c),
    6 => Seq(es),
    7 => Literal(s),
    8 => Number(n),
});
codec!(enum InsertPosition { 0 => Before, 1 => After, 2 => Into });
codec!(enum OpAction {
    0 => Insert { position, fragment_xml },
    1 => Delete { rel_path },
    2 => ReplaceText { rel_path, new_value },
});

impl Encode for UpdateOp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.var().encode(out);
        self.doc().encode(out);
        put_slice(out, self.path());
        match self.filter_expr() {
            None => out.push(0),
            Some(f) => {
                out.push(1);
                f.encode(out);
            }
        }
        self.action().encode(out);
    }
}

impl Decode for UpdateOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let var = String::decode(r)?;
        let doc = String::decode(r)?;
        let path = Vec::<Step>::decode(r)?;
        let filter = Option::<BoolExpr>::decode(r)?;
        let action = OpAction::decode(r)?;
        Ok(UpdateOp::from_parts(var, doc, path, filter, action))
    }
}

impl Encode for UpdateBatch {
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, self.ops());
    }
}

impl Decode for UpdateBatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<UpdateOp>::decode(r)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(wire::from_slice::<T>(&wire::to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn builder_ops_roundtrip() {
        rt(UpdateOp::insert(
            "bib.xml",
            "/bib",
            InsertPosition::Into,
            "<book year=\"2001\"><title>New</title></book>",
        )
        .unwrap());
        rt(UpdateOp::delete("bib.xml", "/bib/book[2]").unwrap());
        rt(UpdateOp::replace_text("prices.xml", "/prices/entry", "price/text()", "9.99")
            .unwrap()
            .filter("b-title", CmpOp::Eq, "New")
            .unwrap());
    }

    #[test]
    fn parsed_batch_roundtrips_losslessly() {
        let batch = UpdateBatch::from_script(
            r#"for $u in doc("bib.xml")/bib update $u
               insert <book year="2001"><title>New</title></book> into $u ;
               for $b in document("bib.xml")//book
               where $b/@year = "1994" and $b/title = "X"
               update $b insert <note>n</note> after $b ;
               for $b in doc("bib.xml")/bib/book[2] update $b delete $b/title ;
               for $e in doc("prices.xml")/prices/entry where $e/b-title = "New"
               update $e replace $e/price/text() with "9.99""#,
        )
        .unwrap();
        let back: UpdateBatch = wire::from_slice(&wire::to_vec(&batch)).unwrap();
        assert_eq!(back, batch);
        // The decoded ops lower to the same parsed statements (the
        // resolver's input), not just structurally equal values.
        for (a, b) in batch.ops().iter().zip(back.ops()) {
            assert_eq!(a.to_stmt(), b.to_stmt());
        }
    }

    #[test]
    fn full_expr_grammar_roundtrips() {
        // A query exercising FLWOR, distinct-values, aggregates, element
        // construction with embedded attributes, sequences, and order-by.
        let q = r#"<result>{
            for $y in distinct-values(doc("bib.xml")/bib/book/@year)
            order by $y descending
            return <yGroup Y="{$y}">
                <n>{ count(
                    for $b in doc("bib.xml")/bib/book
                    where $y = $b/@year and $b/title != "X"
                    return $b
                ) }</n>
                {"lit"}
            </yGroup>
        }</result>"#;
        let expr = crate::parser::parse_query(q).unwrap();
        rt(expr);
    }

    #[test]
    fn empty_batch_roundtrips() {
        rt(UpdateBatch::new());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            wire::from_slice::<Expr>(&[99]).unwrap_err(),
            WireError::Tag { type_name: "Expr", tag: 99 }
        ));
        assert!(matches!(
            wire::from_slice::<OpAction>(&[7]).unwrap_err(),
            WireError::Tag { type_name: "OpAction", .. }
        ));
    }
}
