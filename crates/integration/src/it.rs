//! The integration table (IT).
//!
//! The IT buffers `<operation, input-preg1, input-preg2, output-preg>`
//! tuples of recently renamed instructions. A renaming instruction whose
//! operation and (generation-qualified) input physical registers match an
//! entry may *integrate*: its output logical register is pointed at the
//! entry's output physical register and the instruction bypasses the
//! execution engine. Neither the test nor the reuse moves any values.
//!
//! This implementation holds **direct** and **reverse** entries in one
//! unified set-associative LRU table (§3.1: "a unified design allows
//! direct integration to use the maximum number of entries in programs
//! which do not exploit reverse integration"), supports both PC indexing
//! and the opcode ⊕ immediate ⊕ call-depth indexing of §2.3, and stores
//! generation counters alongside every physical register specifier so
//! stale entries fail the match (§2.2).
//!
//! The table is modelled at the cost of the hardware's parallel tag
//! compare, not of a way-by-way scan: a hash index over the valid slots
//! finds the matching way, and a linked list per set keeps LRU order, so
//! every operation costs about the same host time at any associativity (see
//! [`It`]).
//!
//! Conditional branches have no output register; their entries record the
//! resolved *outcome* instead ([`ItOutput::Branch`]), created at execution
//! time. Because an entry only matches when the input `(preg, gen)` pair
//! matches — i.e. the very same value — a matching branch entry's outcome
//! is always value-correct; integrating it resolves the branch at rename.

use crate::config::{IndexScheme, ReverseScope};
use crate::preg::PregRef;
use rix_isa::{reg, InstAddr, Instr, Opcode};

/// What an IT entry yields on integration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItOutput {
    /// A shared physical register (ALU operations and loads).
    Value(PregRef),
    /// A resolved conditional-branch direction.
    Branch(bool),
}

/// The lookup key built from a renaming instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItKey {
    /// The instruction's PC (used by PC indexing).
    pub pc: InstAddr,
    /// Operation.
    pub op: Opcode,
    /// Whether the instruction carries an immediate/displacement.
    pub has_imm: bool,
    /// The immediate/displacement value (0 for register forms).
    pub imm: i32,
    /// Call depth at fetch (used by opcode indexing).
    pub call_depth: u16,
    /// Renamed first input.
    pub in1: Option<PregRef>,
    /// Renamed second input.
    pub in2: Option<PregRef>,
}

impl ItKey {
    /// Builds the key for `instr` at `pc` given its renamed inputs.
    #[must_use]
    pub fn new(
        pc: InstAddr,
        instr: Instr,
        call_depth: u16,
        in1: Option<PregRef>,
        in2: Option<PregRef>,
    ) -> Self {
        Self {
            pc,
            op: instr.op,
            has_imm: instr.has_immediate(),
            imm: instr.it_imm(),
            call_depth,
            in1,
            in2,
        }
    }
}

/// One integration-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItEntry {
    /// Creator PC (matched under PC indexing).
    pub pc: InstAddr,
    /// Operation (matched under opcode indexing; stored as the minimal
    /// tag in both schemes).
    pub op: Opcode,
    /// Whether the operation carries an immediate.
    pub has_imm: bool,
    /// Immediate value.
    pub imm: i32,
    /// Call depth of the creator (index component under opcode indexing).
    pub call_depth: u16,
    /// First input register, with generation.
    pub in1: Option<PregRef>,
    /// Second input register, with generation.
    pub in2: Option<PregRef>,
    /// The shared output.
    pub out: ItOutput,
    /// Whether this is a reverse entry (§2.4).
    pub reverse: bool,
    /// Dynamic sequence number of the creating instruction (for the
    /// Figure 5 distance statistic).
    pub creator_seq: u64,
}

/// Hot compare half of a slot: the packed opcode-indexing tag (exactly
/// the fields [`It::tag_matches`] checks under
/// [`IndexScheme::OpcodeDepth`]) and the packed inputs. An invalid slot
/// carries `INVALID_TAG` (real tags fit in 48 bits).
type SlotTag = (u64, u64);

const INVALID_TAG: u64 = u64::MAX;

/// The null slot id: an empty index bucket, or either end of an LRU list.
const NIL: u32 = u32::MAX;

/// Packs `op`/`has_imm`/`imm` into the one-compare opcode-indexing tag.
fn pack_od_tag(op: Opcode, has_imm: bool, imm: i32) -> u64 {
    u64::from(op.code()) | (u64::from(has_imm) << 8) | (u64::from(imm as u32) << 16)
}

/// Packs the two optional inputs injectively (pregs are far below the
/// `None` encoding).
fn pack_inputs(in1: Option<PregRef>, in2: Option<PregRef>) -> u64 {
    let enc = |r: Option<PregRef>| -> u64 {
        r.map_or(u64::from(u32::MAX), |r| u64::from(r.preg) | (u64::from(r.gen) << 16))
    };
    enc(in1) | (enc(in2) << 32)
}

/// The slot index's tag word under PC indexing, where the tag is the
/// PC and the opcode.
fn pc_tag(pc: InstAddr, op: Opcode) -> u64 {
    pc ^ (u64::from(op.code()) << 56)
}

/// The set `key` indexes under `scheme` in a table of `num_sets` sets.
fn set_of(scheme: IndexScheme, num_sets: usize, key: &ItKey) -> usize {
    let mask = num_sets - 1;
    match scheme {
        IndexScheme::Pc => (key.pc as usize) & mask,
        IndexScheme::OpcodeDepth => {
            // §2.3: XOR of opcode, immediate and call depth — raw,
            // as the paper describes. The XOR's clumpy distribution
            // (ldq/0, addq/1, …) is part of what the paper measures;
            // the call depth is the structured disambiguator, and
            // because stack displacements are 8-byte aligned while
            // the depth occupies the low bits, frame slots and call
            // levels compose into distinct sets.
            let imm_bits = if key.has_imm { key.imm as u32 as u64 } else { u64::MAX };
            let h = u64::from(key.op.code()) ^ imm_bits ^ u64::from(key.call_depth);
            (h as usize) & mask
        }
    }
}

impl ItEntry {
    /// The key this entry answers (its tag fields and inputs).
    fn key(&self) -> ItKey {
        ItKey {
            pc: self.pc,
            op: self.op,
            has_imm: self.has_imm,
            imm: self.imm,
            call_depth: self.call_depth,
            in1: self.in1,
            in2: self.in2,
        }
    }

    /// The direct entry `key`'s instruction creates.
    fn direct(key: ItKey, out: ItOutput, creator_seq: u64) -> Self {
        Self {
            pc: key.pc,
            op: key.op,
            has_imm: key.has_imm,
            imm: key.imm,
            call_depth: key.call_depth,
            in1: key.in1,
            in2: key.in2,
            out,
            reverse: false,
            creator_seq,
        }
    }

    /// The reverse entry of a renamed store (see
    /// [`It::insert_reverse_store`]).
    fn reverse_store(
        pc: InstAddr,
        instr: Instr,
        call_depth: u16,
        base: PregRef,
        data: PregRef,
        creator_seq: u64,
    ) -> Option<Self> {
        let load_op = instr.op.inverse()?;
        Some(Self {
            pc,
            op: load_op,
            has_imm: true,
            imm: instr.disp,
            call_depth,
            in1: Some(base),
            in2: None,
            out: ItOutput::Value(data),
            reverse: true,
            creator_seq,
        })
    }

    /// The reverse entry of a renamed immediate add (see
    /// [`It::insert_reverse_add`]).
    fn reverse_add(
        pc: InstAddr,
        instr: Instr,
        call_depth: u16,
        src: PregRef,
        dst: PregRef,
        creator_seq: u64,
    ) -> Option<Self> {
        let inv_op = instr.op.inverse()?;
        let neg = instr.alu_imm()?.checked_neg()?;
        Some(Self {
            pc,
            op: inv_op,
            has_imm: true,
            imm: neg,
            call_depth,
            in1: Some(dst),
            in2: None,
            out: ItOutput::Value(src),
            reverse: true,
            creator_seq,
        })
    }
}

/// Statistics for the integration table itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ItStats {
    /// Successful lookups (tag + inputs matched).
    pub hits: u64,
    /// Lookups with no matching entry.
    pub misses: u64,
    /// Entries created.
    pub inserts: u64,
    /// Valid entries evicted by LRU replacement.
    pub evictions: u64,
    /// Entries invalidated after a mis-integration.
    pub invalidations: u64,
}

/// A key resolved for the slot index: its set, the fields the scheme's
/// tag compares, and the packed inputs.
struct Probe {
    set: usize,
    key: ItKey,
    od_tag: u64,
    inputs: u64,
}

/// A slot's neighbours in its set's LRU list (`NIL` at either end).
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

/// A set's LRU list ends (`NIL` when empty) and its count of invalid
/// ways.
#[derive(Clone, Copy, Debug)]
struct SetState {
    head: u32,
    tail: u32,
    free: u32,
}

/// The set-associative integration table.
///
/// Slot `s * ways + w` holds way `w` of set `s`: its hot compare half
/// in `tags` and its cold payload in `entries`. Lookup, insert and
/// invalidate cost O(1) in the associativity, so a fully-associative
/// table costs what a 4-way one does:
///
/// * `index` is an open-addressed hash of slot ids (linear probing,
///   backward-shift deletion, at most a quarter full) over every
///   *matchable* valid slot, keyed by scheme tag and packed inputs.
///   Buckets compare against `tags`/`entries` in place, so no key is
///   stored twice. Equal keys — a direct and a reverse entry
///   under opcode indexing — share one probe chain; a probe walks the
///   whole chain and takes the lowest matching slot, the way a scan of
///   the set would find first. Under PC indexing reverse entries never
///   match, so they stay out of the index.
/// * `links` threads each set's valid slots into a doubly linked list
///   from its `sets` entry's `head` (MRU) to its `tail` (LRU).
/// * `free` is a per-set bitmap of invalid ways (`free_words` words a
///   set), counted in `sets`: an insert takes the lowest free way, or
///   evicts the set's LRU way when there is none.
///
/// ```
/// use rix_integration::{It, ItKey, ItOutput, IndexScheme, PregRef};
/// use rix_isa::{Instr, Opcode, reg};
///
/// let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
/// let add = Instr::alu_ri(Opcode::Addq, reg::R1, reg::R2, 4);
/// let key = ItKey::new(10, add, 0, Some(PregRef::new(7, 1)), None);
/// it.insert_direct(key, PregRef::new(9, 1), 100);
/// let hit = it.lookup(key).expect("matches");
/// assert_eq!(hit.out, ItOutput::Value(PregRef::new(9, 1)));
/// ```
#[derive(Clone, Debug)]
pub struct It {
    tags: Vec<SlotTag>,
    entries: Vec<ItEntry>,
    index: Vec<u32>,
    index_shift: u32,
    links: Vec<Link>,
    sets: Vec<SetState>,
    free: Vec<u64>,
    free_words: usize,
    ways: usize,
    num_sets: usize,
    scheme: IndexScheme,
    stats: ItStats,
}

impl It {
    /// The most entries an IT can hold: slot ids are `u32`, with one
    /// value reserved as the null id.
    pub const MAX_ENTRIES: usize = NIL as usize;

    /// Creates an IT with `entries` total entries and `ways`
    /// associativity under the given index scheme.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `ways` is zero, or `entries` is not a
    /// multiple of `ways` with a power-of-two set count, or exceeds
    /// [`It::MAX_ENTRIES`].
    #[must_use]
    pub fn new(entries: usize, ways: usize, scheme: IndexScheme) -> Self {
        assert!(entries > 0 && ways > 0 && entries.is_multiple_of(ways), "bad IT geometry");
        assert!(entries <= Self::MAX_ENTRIES, "IT larger than its u32 slot ids address");
        let num_sets = entries / ways;
        assert!(num_sets.is_power_of_two(), "IT set count must be a power of two");
        let empty = ItEntry::direct(
            ItKey {
                pc: 0,
                op: Opcode::Nop,
                has_imm: false,
                imm: 0,
                call_depth: 0,
                in1: None,
                in2: None,
            },
            ItOutput::Branch(false),
            0,
        );
        // At most a quarter full: at half full, probe chains made a 4-way
        // table's operations measurably slower than its set scan was.
        let buckets = (4 * entries).next_power_of_two();
        let free_words = ways.div_ceil(64);
        let mut set_free = vec![u64::MAX; free_words];
        if !ways.is_multiple_of(64) {
            set_free[free_words - 1] = (1 << (ways % 64)) - 1;
        }
        Self {
            tags: vec![(INVALID_TAG, 0); entries],
            entries: vec![empty; entries],
            index: vec![NIL; buckets],
            index_shift: 64 - buckets.trailing_zeros(),
            links: vec![Link { prev: NIL, next: NIL }; entries],
            sets: vec![SetState { head: NIL, tail: NIL, free: ways as u32 }; num_sets],
            free: set_free.repeat(num_sets),
            free_words,
            ways,
            num_sets,
            scheme,
            stats: ItStats::default(),
        }
    }

    /// The index scheme in use.
    #[must_use]
    pub fn scheme(&self) -> IndexScheme {
        self.scheme
    }

    /// Table statistics.
    #[must_use]
    pub fn stats(&self) -> ItStats {
        self.stats
    }

    fn tag_matches(scheme: IndexScheme, e: &ItEntry, key: &ItKey) -> bool {
        match scheme {
            // PC match establishes operation and immediate equivalence.
            IndexScheme::Pc => !e.reverse && e.pc == key.pc && e.op == key.op,
            // Opcode indexing uses the minimal opcode/immediate tag so
            // different static instructions can match (§2.3).
            IndexScheme::OpcodeDepth => {
                e.op == key.op && e.has_imm == key.has_imm && e.imm == key.imm
            }
        }
    }

    fn probe(&self, key: &ItKey) -> Probe {
        Probe {
            set: set_of(self.scheme, self.num_sets, key),
            key: *key,
            od_tag: pack_od_tag(key.op, key.has_imm, key.imm),
            inputs: pack_inputs(key.in1, key.in2),
        }
    }

    /// Whether a valid `e` belongs in the slot index: every entry but a
    /// reverse one under PC indexing, which [`It::tag_matches`] rejects.
    fn indexed(&self, e: &ItEntry) -> bool {
        !(self.scheme == IndexScheme::Pc && e.reverse)
    }

    /// The bucket where the probe chain of `inputs` under scheme tag word
    /// `tag` starts. The set is left out: under PC indexing the tag holds
    /// it, and under opcode indexing only the call depth can put an equal
    /// tag and inputs in two sets, which [`It::answers`] tells apart.
    fn bucket(&self, tag: u64, inputs: u64) -> usize {
        let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ inputs;
        (h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> self.index_shift) as usize
    }

    /// The bucket `p`'s probe chain starts at.
    fn home(&self, p: &Probe) -> usize {
        let tag = match self.scheme {
            IndexScheme::OpcodeDepth => p.od_tag,
            IndexScheme::Pc => pc_tag(p.key.pc, p.key.op),
        };
        self.bucket(tag, p.inputs)
    }

    /// The bucket an indexed slot's probe chain starts at.
    fn slot_home(&self, slot: usize) -> usize {
        let (od_tag, inputs) = self.tags[slot];
        let tag = match self.scheme {
            IndexScheme::OpcodeDepth => od_tag,
            IndexScheme::Pc => pc_tag(self.entries[slot].pc, self.entries[slot].op),
        };
        self.bucket(tag, inputs)
    }

    /// Whether indexed `slot` answers `p`: the same set and inputs, and
    /// [`It::tag_matches`] (one compare of the packed tag under opcode
    /// indexing).
    fn answers(&self, slot: usize, p: &Probe) -> bool {
        slot.wrapping_sub(p.set * self.ways) < self.ways
            && match self.scheme {
                IndexScheme::OpcodeDepth => self.tags[slot] == (p.od_tag, p.inputs),
                IndexScheme::Pc => {
                    self.tags[slot].1 == p.inputs
                        && Self::tag_matches(self.scheme, &self.entries[slot], &p.key)
                }
            }
    }

    /// The lowest slot that answers `p` and passes `accept`.
    fn find(&self, p: &Probe, accept: impl Fn(&ItEntry) -> bool) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut b = self.home(p);
        let mut best = NIL;
        while self.index[b] != NIL {
            let s = self.index[b];
            if s < best && self.answers(s as usize, p) && accept(&self.entries[s as usize]) {
                best = s;
            }
            b = (b + 1) & mask;
        }
        (best != NIL).then_some(best as usize)
    }

    fn index_insert(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut b = self.slot_home(slot);
        while self.index[b] != NIL {
            b = (b + 1) & mask;
        }
        self.index[b] = slot as u32;
    }

    /// Removes `slot` from the index by backward-shift deletion: each
    /// later bucket of the chain moves into the hole unless the hole
    /// lies before its home.
    fn index_remove(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.slot_home(slot);
        while self.index[hole] as usize != slot {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let s = self.index[b];
            if s == NIL {
                break;
            }
            let home = self.slot_home(s as usize);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                hole = b;
            }
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, set: usize, slot: usize) {
        let Link { prev, next } = self.links[slot];
        match prev {
            NIL => self.sets[set].head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.sets[set].tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    fn push_mru(&mut self, set: usize, slot: usize) {
        let head = self.sets[set].head;
        self.links[slot] = Link { prev: NIL, next: head };
        match head {
            NIL => self.sets[set].tail = slot as u32,
            h => self.links[h as usize].prev = slot as u32,
        }
        self.sets[set].head = slot as u32;
    }

    fn touch(&mut self, set: usize, slot: usize) {
        if self.sets[set].head as usize != slot {
            self.unlink(set, slot);
            self.push_mru(set, slot);
        }
    }

    /// Claims the lowest invalid way of `set`, if it has one.
    fn take_free(&mut self, set: usize) -> Option<usize> {
        if self.sets[set].free == 0 {
            return None;
        }
        let base = set * self.free_words;
        let i = self.free[base..base + self.free_words].iter().position(|&w| w != 0)?;
        let word = self.free[base + i];
        self.free[base + i] = word & (word - 1);
        self.sets[set].free -= 1;
        Some(set * self.ways + 64 * i + word.trailing_zeros() as usize)
    }

    /// Takes valid `slot` of `set` out of the index and the LRU list.
    fn detach(&mut self, set: usize, slot: usize) {
        if self.indexed(&self.entries[slot]) {
            self.index_remove(slot);
        }
        self.unlink(set, slot);
    }

    /// Invalidates valid `slot` of `set`, returning its way to the free
    /// bitmap.
    fn clear(&mut self, set: usize, slot: usize) {
        self.detach(set, slot);
        self.tags[slot].0 = INVALID_TAG;
        let way = slot - set * self.ways;
        self.free[set * self.free_words + way / 64] |= 1 << (way % 64);
        self.sets[set].free += 1;
    }

    /// Performs the operational-equivalence test: finds an entry whose
    /// tag and generation-qualified inputs match `key`.
    ///
    /// On a hit the entry becomes its set's most recently used and a
    /// copy is returned. The entry is *not* removed — in general reuse
    /// many instructions may integrate the same result.
    pub fn lookup(&mut self, key: ItKey) -> Option<ItEntry> {
        let p = self.probe(&key);
        let Some(slot) = self.find(&p, |_| true) else {
            self.stats.misses += 1;
            return None;
        };
        self.touch(p.set, slot);
        self.stats.hits += 1;
        Some(self.entries[slot])
    }

    fn insert(&mut self, entry: ItEntry) {
        let p = self.probe(&entry.key());
        self.stats.inserts += 1;
        let indexed = self.indexed(&entry);
        // Overwrite an entry for the same static operation and inputs
        // rather than duplicating it.
        if indexed {
            if let Some(slot) = self.find(&p, |e| e.reverse == entry.reverse) {
                self.entries[slot] = entry;
                self.touch(p.set, slot);
                return;
            }
        }
        let slot = match self.take_free(p.set) {
            Some(slot) => slot,
            None => {
                let lru = self.sets[p.set].tail as usize;
                self.detach(p.set, lru);
                self.stats.evictions += 1;
                lru
            }
        };
        self.tags[slot] = (p.od_tag, p.inputs);
        self.entries[slot] = entry;
        self.push_mru(p.set, slot);
        if indexed {
            self.index_insert(slot);
        }
    }

    /// Creates a direct entry for a value-producing instruction that
    /// failed to integrate: `<op/imm, in1, in2> → out`.
    pub fn insert_direct(&mut self, key: ItKey, out: PregRef, creator_seq: u64) {
        self.insert(ItEntry::direct(key, ItOutput::Value(out), creator_seq));
    }

    /// Creates (or refreshes) a branch-outcome entry at execution time.
    pub fn insert_branch(&mut self, key: ItKey, taken: bool, creator_seq: u64) {
        self.insert(ItEntry::direct(key, ItOutput::Branch(taken), creator_seq));
    }

    /// Creates the reverse entry for a renamed store (§2.4): renaming
    /// `stq data, disp(base)` creates `<ldq/disp, base> → data`, which a
    /// future `ldq ?, disp(base)` integrates — speculative memory
    /// bypassing with no value movement.
    ///
    /// Returns `false` (creating nothing) for opcodes with no inverse.
    pub fn insert_reverse_store(
        &mut self,
        pc: InstAddr,
        instr: Instr,
        call_depth: u16,
        base: PregRef,
        data: PregRef,
        creator_seq: u64,
    ) -> bool {
        let Some(e) = ItEntry::reverse_store(pc, instr, call_depth, base, data, creator_seq) else {
            return false;
        };
        self.insert(e);
        true
    }

    /// Creates the reverse entry for a renamed immediate add (§2.4):
    /// renaming `addq d, s, #imm` (old mapping of `s` = `src`, new
    /// mapping of `d` = `dst`) creates `<addq/-imm, dst> → src`, so the
    /// complementary `addq ?, d, #-imm` re-maps to the *original*
    /// physical register. Applied to `lda sp, -32(sp)` / `lda sp, 32(sp)`
    /// pairs this restores the pre-call stack-pointer mapping, which is
    /// what lets save/restore bypassing work across frame pushes.
    ///
    /// Returns `false` when the immediate cannot be negated or the opcode
    /// has no inverse.
    pub fn insert_reverse_add(
        &mut self,
        pc: InstAddr,
        instr: Instr,
        call_depth: u16,
        src: PregRef,
        dst: PregRef,
        creator_seq: u64,
    ) -> bool {
        let Some(e) = ItEntry::reverse_add(pc, instr, call_depth, src, dst, creator_seq) else {
            return false;
        };
        self.insert(e);
        true
    }

    /// Invalidates the entry that produced a mis-integration (identified
    /// by its tag, inputs and output), preventing repeat offenders and
    /// livelock after the DIVA flush re-fetches the same instruction.
    pub fn invalidate(&mut self, key: ItKey, out: ItOutput) {
        let p = self.probe(&key);
        while let Some(slot) = self.find(&p, |e| e.out == out) {
            self.clear(p.set, slot);
            self.stats.invalidations += 1;
        }
    }

    /// Number of valid entries (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.tags.len() - self.sets.iter().map(|s| s.free as usize).sum::<usize>()
    }
}

/// Whether `instr` should create a reverse entry under `scope`.
///
/// The paper's design point creates them for stack-pointer stores
/// (register saves) and stack-pointer immediate adds (frame pushes/pops)
/// only — "the logic to recognise stack-pointer stores and decrements".
#[must_use]
pub fn wants_reverse_entry(scope: ReverseScope, instr: Instr) -> bool {
    match scope {
        ReverseScope::Off => false,
        ReverseScope::StackPointer => {
            let sp_based = instr.src1 == Some(reg::SP);
            (instr.op.is_store() && sp_based)
                || (instr.op == Opcode::Addq
                    && sp_based
                    && instr.dst == Some(reg::SP)
                    && instr.alu_imm().is_some())
        }
        ReverseScope::AllInvertible => {
            instr.op.is_store()
                || (instr.op.inverse().is_some() && instr.alu_imm().is_some())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u16, g: u8) -> PregRef {
        PregRef::new(n, g)
    }

    fn add_key(pc: InstAddr, imm: i32, depth: u16, in1: PregRef) -> ItKey {
        let i = Instr::alu_ri(Opcode::Addq, reg::R1, reg::R2, imm);
        ItKey::new(pc, i, depth, Some(in1), None)
    }

    #[test]
    fn direct_hit_requires_matching_inputs() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let key = add_key(10, 4, 0, p(7, 1));
        it.insert_direct(key, p(9, 1), 1);
        assert!(it.lookup(key).is_some());
        // Different input preg → miss.
        assert!(it.lookup(add_key(10, 4, 0, p(8, 1))).is_none());
        // Same preg, different generation → miss (stale entry filtered).
        assert!(it.lookup(add_key(10, 4, 0, p(7, 2))).is_none());
    }

    #[test]
    fn pc_indexing_requires_same_pc() {
        let mut it = It::new(64, 4, IndexScheme::Pc);
        let key = add_key(10, 4, 0, p(7, 1));
        it.insert_direct(key, p(9, 1), 1);
        assert!(it.lookup(key).is_some());
        let other_pc = add_key(11, 4, 0, p(7, 1));
        assert!(it.lookup(other_pc).is_none(), "different static instruction");
    }

    #[test]
    fn opcode_indexing_matches_across_pcs() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let key = add_key(10, 4, 0, p(7, 1));
        it.insert_direct(key, p(9, 1), 1);
        let other_pc = add_key(999, 4, 0, p(7, 1));
        assert!(
            it.lookup(other_pc).is_some(),
            "§2.3: different static instructions integrate each other"
        );
    }

    #[test]
    fn reg_form_and_imm_form_distinct() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let ri = Instr::alu_ri(Opcode::Addq, reg::R1, reg::R2, 0);
        let rr = Instr::alu_rr(Opcode::Addq, reg::R1, reg::R2, reg::ZERO);
        let k_ri = ItKey::new(5, ri, 0, Some(p(7, 1)), None);
        let k_rr = ItKey::new(5, rr, 0, Some(p(7, 1)), Some(p(0, 0)));
        it.insert_direct(k_ri, p(9, 1), 1);
        assert!(it.lookup(k_rr).is_none());
    }

    #[test]
    fn reverse_store_creates_load_entry() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let st = Instr::store(Opcode::Stq, reg::T0, reg::SP, 8);
        assert!(it.insert_reverse_store(3, st, 2, p(12, 1), p(20, 1), 50));
        // The complementary load: ldq ?, 8(sp) with the same base preg.
        let ld = Instr::load(Opcode::Ldq, reg::T0, reg::SP, 8);
        let key = ItKey::new(77, ld, 2, Some(p(12, 1)), None);
        let hit = it.lookup(key).expect("bypassing entry matches");
        assert_eq!(hit.out, ItOutput::Value(p(20, 1)));
        assert!(hit.reverse);
    }

    #[test]
    fn reverse_add_restores_original_mapping() {
        // §2.4 working example: lda sp, -32(sp) (old sp = p12, new = p31)
        // creates <addq/+32, p31> → p12.
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let push = Instr::alu_ri(Opcode::Addq, reg::SP, reg::SP, -32);
        assert!(it.insert_reverse_add(4, push, 1, p(12, 1), p(31, 1), 60));
        let pop = Instr::alu_ri(Opcode::Addq, reg::SP, reg::SP, 32);
        let key = ItKey::new(90, pop, 1, Some(p(31, 1)), None);
        let hit = it.lookup(key).expect("inverse matches");
        assert_eq!(hit.out, ItOutput::Value(p(12, 1)));
    }

    #[test]
    fn reverse_add_rejects_unnegatable_imm() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let i = Instr::alu_ri(Opcode::Addq, reg::SP, reg::SP, i32::MIN);
        assert!(!it.insert_reverse_add(4, i, 1, p(12, 1), p(31, 1), 60));
    }

    #[test]
    fn branch_entries_roundtrip() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let br = Instr::cond_branch(Opcode::Bne, reg::R1, 55);
        let key = ItKey::new(20, br, 0, Some(p(5, 2)), None);
        it.insert_branch(key, true, 9);
        assert_eq!(it.lookup(key).unwrap().out, ItOutput::Branch(true));
    }

    #[test]
    fn lru_eviction_within_set() {
        // Fully associative 2-entry table: third insert evicts LRU.
        let mut it = It::new(2, 2, IndexScheme::OpcodeDepth);
        let k1 = add_key(1, 100, 0, p(1, 1));
        let k2 = add_key(2, 200, 0, p(2, 1));
        let k3 = add_key(3, 300, 0, p(3, 1));
        it.insert_direct(k1, p(10, 1), 1);
        it.insert_direct(k2, p(11, 1), 2);
        assert!(it.lookup(k1).is_some()); // touch k1 → k2 is LRU
        it.insert_direct(k3, p(12, 1), 3);
        assert!(it.lookup(k1).is_some());
        assert!(it.lookup(k2).is_none(), "LRU entry evicted");
        assert!(it.lookup(k3).is_some());
        assert_eq!(it.stats().evictions, 1);
    }

    #[test]
    fn duplicate_insert_overwrites() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let key = add_key(10, 4, 0, p(7, 1));
        it.insert_direct(key, p(9, 1), 1);
        it.insert_direct(key, p(13, 2), 2);
        assert_eq!(it.lookup(key).unwrap().out, ItOutput::Value(p(13, 2)));
        assert_eq!(it.occupancy(), 1, "no duplicate entries");
    }

    #[test]
    fn invalidate_removes_offender() {
        let mut it = It::new(64, 4, IndexScheme::OpcodeDepth);
        let key = add_key(10, 4, 0, p(7, 1));
        it.insert_direct(key, p(9, 1), 1);
        it.invalidate(key, ItOutput::Value(p(9, 1)));
        assert!(it.lookup(key).is_none());
        assert_eq!(it.stats().invalidations, 1);
    }

    #[test]
    fn call_depth_separates_sets_under_opcode_indexing() {
        // Same op/imm at different depths indexes different sets (the
        // §2.3 conflict-relief property). With a direct-mapped table the
        // two entries must coexist.
        let mut it = It::new(64, 1, IndexScheme::OpcodeDepth);
        let k_d1 = add_key(10, 8, 1, p(7, 1));
        let k_d2 = add_key(10, 8, 2, p(8, 1));
        it.insert_direct(k_d1, p(9, 1), 1);
        it.insert_direct(k_d2, p(10, 1), 2);
        assert!(it.lookup(k_d1).is_some());
        assert!(it.lookup(k_d2).is_some());
    }

    #[test]
    fn wants_reverse_entry_scopes() {
        let sp_store = Instr::store(Opcode::Stq, reg::T0, reg::SP, 8);
        let other_store = Instr::store(Opcode::Stq, reg::T0, reg::R2, 8);
        let sp_push = Instr::alu_ri(Opcode::Addq, reg::SP, reg::SP, -32);
        let plain_add = Instr::alu_ri(Opcode::Addq, reg::R1, reg::R2, 4);
        let sp_read = Instr::alu_ri(Opcode::Addq, reg::R1, reg::SP, 4);

        assert!(!wants_reverse_entry(ReverseScope::Off, sp_store));
        assert!(wants_reverse_entry(ReverseScope::StackPointer, sp_store));
        assert!(wants_reverse_entry(ReverseScope::StackPointer, sp_push));
        assert!(!wants_reverse_entry(ReverseScope::StackPointer, other_store));
        assert!(!wants_reverse_entry(ReverseScope::StackPointer, plain_add));
        assert!(!wants_reverse_entry(ReverseScope::StackPointer, sp_read));
        assert!(wants_reverse_entry(ReverseScope::AllInvertible, other_store));
        assert!(wants_reverse_entry(ReverseScope::AllInvertible, plain_add));
    }

    #[test]
    #[should_panic(expected = "bad IT geometry")]
    fn bad_geometry_rejected() {
        let _ = It::new(0, 4, IndexScheme::Pc);
    }

    /// The linear-scan IT that the slot index replaced: every operation
    /// walks the set, and LRU order comes from per-way stamps. The
    /// property test below holds [`It`] to it operation by operation.
    struct RefIt {
        tags: Vec<SlotTag>,
        lrus: Vec<u64>,
        entries: Vec<ItEntry>,
        ways: usize,
        num_sets: usize,
        scheme: IndexScheme,
        stamp: u64,
        stats: ItStats,
    }

    impl RefIt {
        fn new(entries: usize, ways: usize, scheme: IndexScheme) -> Self {
            let it = It::new(entries, ways, scheme);
            Self {
                tags: it.tags,
                lrus: vec![0; entries],
                entries: it.entries,
                ways,
                num_sets: entries / ways,
                scheme,
                stamp: 0,
                stats: ItStats::default(),
            }
        }

        fn lookup(&mut self, key: ItKey) -> Option<ItEntry> {
            let set = set_of(self.scheme, self.num_sets, &key);
            self.stamp += 1;
            let kin = pack_inputs(key.in1, key.in2);
            for wi in set * self.ways..(set + 1) * self.ways {
                if self.tags[wi].0 != INVALID_TAG
                    && It::tag_matches(self.scheme, &self.entries[wi], &key)
                    && self.tags[wi].1 == kin
                {
                    self.lrus[wi] = self.stamp;
                    self.stats.hits += 1;
                    return Some(self.entries[wi]);
                }
            }
            self.stats.misses += 1;
            None
        }

        fn insert(&mut self, entry: ItEntry) {
            let key = entry.key();
            let set = set_of(self.scheme, self.num_sets, &key);
            self.stamp += 1;
            self.stats.inserts += 1;
            let inputs = pack_inputs(entry.in1, entry.in2);
            let mut victim = set * self.ways;
            let mut victim_lru = u64::MAX;
            for wi in set * self.ways..(set + 1) * self.ways {
                let t = self.tags[wi];
                if t.0 != INVALID_TAG
                    && t.1 == inputs
                    && self.entries[wi].reverse == entry.reverse
                    && It::tag_matches(self.scheme, &self.entries[wi], &key)
                {
                    self.entries[wi] = entry;
                    self.lrus[wi] = self.stamp;
                    return;
                }
                let lru = if t.0 == INVALID_TAG { 0 } else { self.lrus[wi] };
                if lru < victim_lru {
                    victim_lru = lru;
                    victim = wi;
                }
            }
            if self.tags[victim].0 != INVALID_TAG {
                self.stats.evictions += 1;
            }
            self.tags[victim] = (pack_od_tag(entry.op, entry.has_imm, entry.imm), inputs);
            self.lrus[victim] = self.stamp;
            self.entries[victim] = entry;
        }

        fn invalidate(&mut self, key: ItKey, out: ItOutput) {
            let set = set_of(self.scheme, self.num_sets, &key);
            let kin = pack_inputs(key.in1, key.in2);
            for wi in set * self.ways..(set + 1) * self.ways {
                if self.tags[wi].0 != INVALID_TAG
                    && It::tag_matches(self.scheme, &self.entries[wi], &key)
                    && self.tags[wi].1 == kin
                    && self.entries[wi].out == out
                {
                    self.tags[wi].0 = INVALID_TAG;
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    /// One operation of the random stream.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Lookup(ItKey),
        Direct(ItKey, PregRef, u64),
        Branch(ItKey, bool, u64),
        ReverseStore(InstAddr, Instr, u16, PregRef, PregRef, u64),
        ReverseAdd(InstAddr, Instr, u16, PregRef, PregRef, u64),
        Invalidate(ItKey, ItOutput),
    }

    /// A seeded splitmix64 stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len() as u64) as usize]
        }
    }

    /// Draws operations from a key space sized to the table: enough
    /// distinct keys to overflow every set, few enough that keys repeat.
    /// Stack-pointer loads, stores and `addq` pairs share op/imm/base so
    /// direct and reverse entries with one key meet in one set; a ring
    /// of recent keys and outputs feeds the hits and invalidations.
    struct Stream {
        rng: Rng,
        pregs: u64,
        recent: Vec<(ItKey, ItOutput)>,
        seq: u64,
    }

    impl Stream {
        fn preg(&mut self) -> PregRef {
            p(self.rng.below(self.pregs) as u16, self.rng.below(2) as u8)
        }

        fn key(&mut self) -> ItKey {
            let pc = self.rng.below(16);
            let depth = self.rng.below(2) as u16;
            let imm = self.rng.pick(&[-8, 0, 8, 16]);
            let base = self.preg();
            let instr = match self.rng.below(4) {
                0 => Instr::load(Opcode::Ldq, reg::T0, reg::SP, imm),
                1 => Instr::alu_ri(Opcode::Addq, reg::SP, reg::SP, imm),
                2 => Instr::cond_branch(Opcode::Bne, reg::R1, 0),
                _ => Instr::alu_rr(Opcode::Addq, reg::R1, reg::R2, reg::R3),
            };
            let in2 = (instr.src2_reg().is_some() && !instr.op.is_mem()).then(|| self.preg());
            ItKey::new(pc, instr, depth, Some(base), in2)
        }

        fn recent_or_new(&mut self) -> (ItKey, ItOutput) {
            if !self.recent.is_empty() && self.rng.below(2) == 0 {
                let i = self.rng.below(self.recent.len() as u64) as usize;
                let (mut key, out) = self.recent[i];
                if self.rng.below(4) == 0 {
                    // Same tag and inputs from another static instruction.
                    key.pc = self.rng.below(16);
                }
                (key, out)
            } else {
                (self.key(), ItOutput::Value(self.preg()))
            }
        }

        fn remember(&mut self, key: ItKey, out: ItOutput) {
            if self.recent.len() == 64 {
                let i = self.rng.below(64) as usize;
                self.recent[i] = (key, out);
            } else {
                self.recent.push((key, out));
            }
        }

        fn next(&mut self) -> Op {
            self.seq += 1;
            let seq = self.seq;
            let (key, out) = self.recent_or_new();
            let depth = key.call_depth;
            let base = key.in1.expect("every key has an input");
            match self.rng.below(10) {
                0..=2 => Op::Lookup(key),
                3 | 4 => {
                    // Reusing a remembered output pairs a direct entry
                    // with a reverse one that one invalidation clears.
                    let out = match out {
                        ItOutput::Value(r) if self.rng.below(2) == 0 => r,
                        _ => self.preg(),
                    };
                    self.remember(key, ItOutput::Value(out));
                    Op::Direct(key, out, seq)
                }
                5 => {
                    let taken = self.rng.below(2) == 0;
                    self.remember(key, ItOutput::Branch(taken));
                    Op::Branch(key, taken, seq)
                }
                6 => {
                    let st = Instr::store(Opcode::Stq, reg::T0, reg::SP, key.imm);
                    let data = self.preg();
                    let ld = Instr::load(Opcode::Ldq, reg::T0, reg::SP, key.imm);
                    let load_key = ItKey::new(key.pc, ld, depth, Some(base), None);
                    self.remember(load_key, ItOutput::Value(data));
                    Op::ReverseStore(key.pc, st, depth, base, data, seq)
                }
                7 => {
                    let imm = self.rng.pick(&[-16, -8, 0, 8, i32::MIN]);
                    let add = Instr::alu_ri(Opcode::Addq, reg::SP, reg::SP, imm);
                    let src = self.preg();
                    if let Some(neg) = imm.checked_neg() {
                        let pop = Instr::alu_ri(Opcode::Addq, reg::SP, reg::SP, neg);
                        let pop_key = ItKey::new(key.pc, pop, depth, Some(base), None);
                        self.remember(pop_key, ItOutput::Value(src));
                    }
                    Op::ReverseAdd(key.pc, add, depth, src, base, seq)
                }
                _ => Op::Invalidate(key, out),
            }
        }
    }

    /// Slot-by-slot equality of the two tables' contents.
    fn same_slots(it: &It, model: &RefIt) -> bool {
        it.tags.iter().zip(&model.tags).zip(it.entries.iter().zip(&model.entries)).all(
            |((t, mt), (e, me))| {
                (t.0 == INVALID_TAG) == (mt.0 == INVALID_TAG) && (t.0 == INVALID_TAG || e == me)
            },
        )
    }

    #[test]
    fn slot_index_matches_the_linear_scan_model() {
        let geometries = [(1, 1), (2, 2), (64, 1), (64, 4), (96, 3), (64, 64), (4096, 4096)];
        for scheme in [IndexScheme::Pc, IndexScheme::OpcodeDepth] {
            for (entries, ways) in geometries {
                let mut it = It::new(entries, ways, scheme);
                let mut model = RefIt::new(entries, ways, scheme);
                let mut stream = Stream {
                    rng: Rng(entries as u64 * 31 + ways as u64),
                    pregs: (entries as u64 / 4).max(3),
                    recent: Vec::new(),
                    seq: 0,
                };
                let n = 20 * entries + 4000;
                for i in 0..n {
                    let op = stream.next();
                    let (got, want) = match op {
                        Op::Lookup(k) => (it.lookup(k), model.lookup(k)),
                        Op::Direct(k, out, seq) => {
                            it.insert_direct(k, out, seq);
                            model.insert(ItEntry::direct(k, ItOutput::Value(out), seq));
                            (None, None)
                        }
                        Op::Branch(k, taken, seq) => {
                            it.insert_branch(k, taken, seq);
                            model.insert(ItEntry::direct(k, ItOutput::Branch(taken), seq));
                            (None, None)
                        }
                        Op::ReverseStore(pc, instr, depth, base, data, seq) => {
                            let e = ItEntry::reverse_store(pc, instr, depth, base, data, seq);
                            let made = it.insert_reverse_store(pc, instr, depth, base, data, seq);
                            assert_eq!(made, e.is_some());
                            if let Some(e) = e {
                                model.insert(e);
                            }
                            (None, None)
                        }
                        Op::ReverseAdd(pc, instr, depth, src, dst, seq) => {
                            let e = ItEntry::reverse_add(pc, instr, depth, src, dst, seq);
                            let made = it.insert_reverse_add(pc, instr, depth, src, dst, seq);
                            assert_eq!(made, e.is_some());
                            if let Some(e) = e {
                                model.insert(e);
                            }
                            (None, None)
                        }
                        Op::Invalidate(k, out) => {
                            it.invalidate(k, out);
                            model.invalidate(k, out);
                            (None, None)
                        }
                    };
                    let at = format!("{scheme:?} {entries}x{ways}, op {i}: {op:?}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(it.stats(), model.stats, "{at}");
                    let occupancy = model.tags.iter().filter(|t| t.0 != INVALID_TAG).count();
                    assert_eq!(it.occupancy(), occupancy, "{at}");
                    if i % 64 == 0 || i + 1 == n {
                        assert!(same_slots(&it, &model), "{at}");
                    }
                }
                let s = it.stats();
                assert!(
                    s.hits > 0 && s.evictions > 0 && s.invalidations > 0,
                    "{scheme:?} {entries}x{ways}: the stream must hit, evict and invalidate: {s:?}"
                );
            }
        }
    }
}
