//! [`wire`] codec impls for materialized extents — the snapshot layer
//! persists each view's [`ViewExtent`] verbatim (semantic ids, count
//! annotations, and result order), so recovery reinstalls extents without
//! recomputing them.

use crate::extent::{VNode, ViewExtent};
use wire::codec;

codec!(struct VNode { sem, data, count, children });
codec!(struct ViewExtent { roots });

#[cfg(test)]
mod tests {
    use super::*;
    use flexkey::{FlexKey, LngAtom, OrdAtom, OrdKey, SemId};
    use wire::{Decode, Encode};
    use xmlstore::NodeData;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(wire::from_slice::<T>(&wire::to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn vnode_roundtrip_preserves_ids_counts_order() {
        let mut group = VNode::new(
            SemId::constructed(vec![LngAtom::Val("1994".into())])
                .with_ord(OrdKey::from_atom(OrdAtom::text("1994"))),
            NodeData::Element { name: "yGroup".into(), attrs: vec![("Y".into(), "1994".into())] },
        );
        group.count = 2;
        group.children.push(VNode::new(
            SemId::base(FlexKey::parse("b.b.b").unwrap()),
            NodeData::element("title"),
        ));
        group.children[0]
            .children
            .push(VNode::new(SemId::base(FlexKey::parse("b.b.b.b").unwrap()), NodeData::text("T")));
        rt(group.clone());
        rt(ViewExtent { roots: vec![group] });
        rt(ViewExtent::default());
    }

    #[test]
    fn extent_roundtrip_serializes_identically() {
        let mut root = VNode::new(SemId::constructed(vec![LngAtom::Star]), NodeData::element("r"));
        let mut del = VNode::new(
            SemId::constructed(vec![LngAtom::Val("x".into())]).with_no_order(),
            NodeData::element("gone"),
        );
        del.count = -1;
        root.children.push(del);
        let extent = ViewExtent { roots: vec![root] };
        let back: ViewExtent = wire::from_slice(&wire::to_vec(&extent)).unwrap();
        assert_eq!(back.to_xml(), extent.to_xml());
        assert_eq!(back, extent);
    }
}
