//! Property-based tests of MOP formation: steering decisions must
//! conserve instructions, pair ids must match up, and the translation
//! table must agree with a reference register-renaming model.

use proptest::prelude::*;

use mos_core::form::{FormedItem, Former, RenamedInst};
use mos_core::pointer::MopPointer;
use mos_core::{Tag, UopId};
use mos_isa::{InstClass, Reg};

#[derive(Debug, Clone)]
struct RandInst {
    dst: Option<u8>,
    srcs: Vec<u8>,
    class: u8,
    taken: bool,
    pointer_offset: Option<u8>,
}

fn rand_inst() -> impl Strategy<Value = RandInst> {
    (
        prop::option::of(1u8..10),
        prop::collection::vec(1u8..10, 0..2),
        0u8..4,
        any::<bool>(),
        prop::option::weighted(0.3, 1u8..5),
    )
        .prop_map(|(dst, srcs, class, taken, pointer_offset)| RandInst {
            dst,
            srcs,
            class,
            taken,
            pointer_offset,
        })
}

fn to_renamed(i: usize, r: &RandInst) -> RenamedInst {
    let class = match r.class {
        0 => InstClass::IntAlu,
        1 => InstClass::Load,
        2 => InstClass::Store,
        _ => InstClass::CondBranch,
    };
    let dst = match class {
        InstClass::IntAlu | InstClass::Load => r.dst.map(Reg::int),
        _ => None,
    };
    let sidx = i as u32;
    let pointer = r
        .pointer_offset
        .filter(|_| class == InstClass::IntAlu && dst.is_some())
        .map(|off| MopPointer::new(off, false, sidx + u32::from(off)));
    RenamedInst {
        id: UopId(i as u64),
        sidx,
        class,
        dst,
        srcs: r.srcs.iter().map(|&n| Reg::int(n)).collect(),
        taken: class == InstClass::CondBranch && r.taken,
        taken_indirect: false,
        pointer,
        is_candidate: class != InstClass::Load,
        is_valuegen: class != InstClass::Load && dst.is_some(),
        fetched_at: 0,
        wrong_path: false,
    }
}

fn run_former(stream: &[RandInst]) -> Vec<FormedItem> {
    let mut f = Former::new(true, 2);
    let mut items = Vec::new();
    for (g, chunk) in stream.chunks(4).enumerate() {
        f.begin_group();
        for (k, r) in chunk.iter().enumerate() {
            f.feed(&to_renamed(g * 4 + k, r), &mut items);
        }
        f.end_group(&mut items);
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Formation conserves instructions: every fed instruction appears in
    /// exactly one Single/HeadPending/TailFuse item, in order.
    #[test]
    fn instructions_are_conserved(stream in prop::collection::vec(rand_inst(), 1..64)) {
        let items = run_former(&stream);
        let mut seen: Vec<u64> = Vec::new();
        for item in &items {
            match item {
                FormedItem::Single(u) => seen.push(u.id.0),
                FormedItem::HeadPending { head, .. } => seen.push(head.id.0),
                FormedItem::TailFuse { tail, .. } => seen.push(tail.id.0),
                FormedItem::Cancel { .. } => {}
            }
        }
        let expected: Vec<u64> = (0..stream.len() as u64).collect();
        prop_assert_eq!(seen, expected);
    }

    /// Every TailFuse and Cancel refers to a previously issued
    /// HeadPending's pair id, and each pair id is fused or cancelled at
    /// most once (chains may fuse repeatedly but never after a cancel).
    #[test]
    fn pair_ids_are_well_formed(stream in prop::collection::vec(rand_inst(), 1..64)) {
        let items = run_former(&stream);
        let mut open: std::collections::HashSet<u64> = Default::default();
        for item in &items {
            match item {
                FormedItem::HeadPending { pair_id, .. } => {
                    prop_assert!(open.insert(*pair_id), "pair id {} reused", pair_id);
                }
                FormedItem::TailFuse { pair_id, chain_more, .. } => {
                    prop_assert!(open.contains(pair_id), "fuse of unknown pair {}", pair_id);
                    if !chain_more {
                        open.remove(pair_id);
                    }
                }
                FormedItem::Cancel { pair_id } => {
                    prop_assert!(open.remove(pair_id), "cancel of unknown pair {}", pair_id);
                }
                FormedItem::Single(_) => {}
            }
        }
    }

    /// Dependence translation matches a reference renaming: a consumer's
    /// source tags are exactly the tags of the latest writers of its
    /// source registers (deduplicated), with fused tails aliasing their
    /// head's tag.
    #[test]
    fn translation_matches_reference(stream in prop::collection::vec(rand_inst(), 1..64)) {
        let items = run_former(&stream);
        let mut table: std::collections::HashMap<u8, Tag> = Default::default();
        let mut k = 0usize;
        for item in &items {
            let uop = match item {
                FormedItem::Single(u) => u,
                FormedItem::HeadPending { head, .. } => head,
                FormedItem::TailFuse { tail, .. } => tail,
                FormedItem::Cancel { .. } => continue,
            };
            let r = &stream[k];
            k += 1;
            // Expected sources per the reference table.
            let mut expected: Vec<Tag> = Vec::new();
            let renamed = to_renamed(k - 1, r);
            for s in &renamed.srcs {
                if let Some(&t) = table.get(&(s.index() as u8)) {
                    if !expected.contains(&t) {
                        expected.push(t);
                    }
                }
            }
            prop_assert_eq!(&uop.srcs, &expected, "uop {} sources", uop.id.0);
            if let (Some(dst), Some(tag)) = (renamed.dst, uop.dst) {
                table.insert(dst.index() as u8, tag);
            }
        }
    }

    /// Disabled formation degenerates to pure renaming: only Single items.
    #[test]
    fn disabled_former_is_pure_renaming(stream in prop::collection::vec(rand_inst(), 1..48)) {
        let mut f = Former::new(false, 2);
        let mut items = Vec::new();
        for (g, chunk) in stream.chunks(4).enumerate() {
            f.begin_group();
            for (k, r) in chunk.iter().enumerate() {
                f.feed(&to_renamed(g * 4 + k, r), &mut items);
                prop_assert_eq!(items.len(), 1);
                prop_assert!(matches!(items.pop(), Some(FormedItem::Single(_))));
            }
            f.end_group(&mut items);
            prop_assert!(items.is_empty());
        }
    }
}
