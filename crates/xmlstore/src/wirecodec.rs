//! [`wire`] codec impls for the XML model and the storage manager —
//! serialization lives with the types, so the snapshot layer can persist a
//! whole [`Store`] (documents, key maps, count annotations, and the
//! root-segment allocation cursor) without reaching into its internals.
//!
//! A [`Doc`] is its name, root key, and FlexKey→Node entries in key order;
//! a [`Store`] is its documents in name order plus the `next_root` cursor.
//! Decoding re-validates what the in-memory constructors would: segment
//! alphabets come back through [`flexkey`]'s validating codec, strings
//! through UTF-8 checks. Map entries re-collect into `BTreeMap`s, so even
//! a permuted (hand-crafted) encoding yields a correctly ordered store.

use crate::frag::{Frag, NodeData};
use crate::store::{Doc, Node, Store};
use flexkey::FlexKey;
use std::collections::BTreeMap;
use wire::{codec, put_u64, Decode, Encode, Reader, WireError};

codec!(enum NodeData { 0 => Element { name, attrs }, 1 => Text { value } });
codec!(struct Node { data, count });
codec!(struct Frag { data, count, children });

impl Encode for Doc {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.root.encode(out);
        put_u64(out, self.len() as u64);
        for (k, n) in self.iter() {
            k.encode(out);
            n.encode(out);
        }
    }
}

impl Decode for Doc {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = String::decode(r)?;
        let root = FlexKey::decode(r)?;
        let n = r.len_prefix()?;
        let mut nodes = BTreeMap::new();
        for _ in 0..n {
            let key = FlexKey::decode(r)?;
            let node = Node::decode(r)?;
            nodes.insert(key, node);
        }
        Ok(Doc::from_parts(name, root, nodes))
    }
}

impl Encode for Store {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.docs().len() as u64);
        for doc in self.docs().values() {
            doc.encode(out);
        }
        self.next_root().encode(out);
    }
}

impl Decode for Store {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix()?;
        let mut docs = BTreeMap::new();
        for _ in 0..n {
            let doc = Doc::decode(r)?;
            docs.insert(doc.name.clone(), doc);
        }
        let next_root = usize::decode(r)?;
        Ok(Store::from_parts(docs, next_root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InsertPos;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP Illustrated</title>
            <author><last>Stevens</last><first>W.</first></author></book>
        <book year="2000"><title>Data on the Web</title></book>
    </bib>"#;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(wire::from_slice::<T>(&wire::to_vec(&v)).unwrap(), v);
    }

    #[test]
    fn node_data_and_frag_roundtrip() {
        rt(NodeData::element("book"));
        rt(NodeData::Element {
            name: "b".into(),
            attrs: vec![("year".into(), "1994".into()), ("id".into(), "x\"<&".into())],
        });
        rt(NodeData::text("some text with <markup> & entities"));
        rt(Node { data: NodeData::text("t"), count: -3 });
        rt(Frag::elem("book")
            .attr("year", "1994")
            .child(Frag::elem("title").text_child("TCP/IP Illustrated")));
    }

    #[test]
    fn store_roundtrip_is_same_content() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        s.load_doc("prices.xml", "<prices><entry><price>9.95</price></entry></prices>").unwrap();
        let back: Store = wire::from_slice(&wire::to_vec(&s)).unwrap();
        assert!(s.same_content(&back));
        // The decoded store serves queries identically…
        assert_eq!(back.serialize_doc("bib.xml"), s.serialize_doc("bib.xml"));
        let bib = back.doc_root("bib.xml").unwrap();
        assert_eq!(back.children_named(&bib, "book").len(), 2);
        // …and allocates the *same* keys for future documents.
        let mut a = s.clone();
        let mut b = back.clone();
        let ka = a.load_doc("extra.xml", "<x/>").unwrap();
        let kb = b.load_doc("extra.xml", "<x/>").unwrap();
        assert_eq!(ka, kb, "next_root survived the roundtrip");
        assert!(a.same_content(&b));
    }

    #[test]
    fn same_content_discriminates() {
        let mut a = Store::new();
        a.load_doc("bib.xml", BIB).unwrap();
        let b = a.clone();
        assert!(a.same_content(&b));

        // Different text content.
        let mut c = b.clone();
        let root = c.doc_root("bib.xml").unwrap();
        let title = c.descendants_named(&root, "title")[0].clone();
        c.replace_text(&title, "Other");
        assert!(!a.same_content(&c));

        // Different node set.
        let mut d = b.clone();
        let root = d.doc_root("bib.xml").unwrap();
        let book = d.children_named(&root, "book")[0].clone();
        d.delete_subtree(&book);
        assert!(!a.same_content(&d));

        // Same XML, different key allocation state.
        let mut e = b.clone();
        let root = e.doc_root("bib.xml").unwrap();
        let inserted = e.insert_fragment(&root, InsertPos::Last, &Frag::elem("tmp")).unwrap();
        e.delete_subtree(&inserted);
        assert!(a.same_content(&e), "insert+delete restores content equality");

        // Different doc names.
        let mut f = Store::new();
        f.load_doc("other.xml", BIB).unwrap();
        assert!(!a.same_content(&f));
    }

    #[test]
    fn updated_store_roundtrips() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let root = s.doc_root("bib.xml").unwrap();
        let books = s.children_named(&root, "book");
        s.insert_fragment(
            &root,
            InsertPos::After(books[0].clone()),
            &Frag::elem("book").attr("year", "1997").child(Frag::elem("title").text_child("Mid")),
        )
        .unwrap();
        s.delete_subtree(&books[1]);
        s.replace_attr(&books[0], "year", "1995");
        let back: Store = wire::from_slice(&wire::to_vec(&s)).unwrap();
        assert!(s.same_content(&back));
    }

    #[test]
    fn truncated_store_bytes_rejected() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let bytes = wire::to_vec(&s);
        // Every strict prefix must fail to decode — the snapshot layer
        // relies on decode failure (not garbage data) for torn files.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(wire::from_slice::<Store>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
