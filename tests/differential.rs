//! Differential testing: random (but always-terminating) programs run on
//! the out-of-order pipeline and the in-order reference interpreter, and
//! the final architectural state must match exactly — under every
//! integration configuration. This is the strongest correctness property
//! of the reproduction: integration, mis-integration recovery, wrong-path
//! execution, and memory-order speculation must all be architecturally
//! invisible.

use proptest::prelude::*;
use rix::isa::interp::{Interp, StopReason};
use rix::isa::{reg, Asm, LogReg, Opcode, Program};
use rix::prelude::*;

const STACK_TOP: u64 = 0x0800_0000;

/// One random body operation.
#[derive(Clone, Debug)]
enum BodyOp {
    Alu(u8, u8, u8, u8), // op-kind, dst, a, b
    AluImm(u8, u8, u8, i16),
    Load(u8, u8, u16),
    Store(u8, u8, u16),
    Hammock(u8, i16, i16),
    SaveRestore(u8, u8),
}

fn alu_opcode(kind: u8) -> Opcode {
    match kind % 8 {
        0 => Opcode::Addq,
        1 => Opcode::Subq,
        2 => Opcode::And,
        3 => Opcode::Or,
        4 => Opcode::Xor,
        5 => Opcode::Mulq,
        6 => Opcode::Cmplt,
        _ => Opcode::Cmpeq,
    }
}

/// Registers the generator may use freely (avoids sp/ra/zero).
fn gp(n: u8) -> LogReg {
    LogReg::int(1 + (n % 12))
}

fn build(ops: &[BodyOp], trips: u8) -> Program {
    let mut a = Asm::new();
    // Deterministic initial values.
    for i in 0..13 {
        a.addq_i(LogReg::int(1 + i), reg::ZERO, i32::from(i) * 37 + 5);
    }
    a.addq_i(LogReg::int(14), reg::ZERO, i32::from(trips % 8) + 2); // counter
    let mut label = 0usize;
    a.label("loop");
    for op in ops {
        match *op {
            BodyOp::Alu(k, d, x, y) => {
                a.emit(rix::isa::Instr::alu_rr(alu_opcode(k), gp(d), gp(x), gp(y)));
            }
            BodyOp::AluImm(k, d, x, imm) => {
                a.emit(rix::isa::Instr::alu_ri(alu_opcode(k), gp(d), gp(x), i32::from(imm)));
            }
            BodyOp::Load(d, b, off) => {
                // Confine addresses to a small aligned arena.
                a.and_i(LogReg::int(15), gp(b), 0x3f8);
                a.addq_i(LogReg::int(15), LogReg::int(15), 0x4000);
                a.ldq(gp(d), i32::from(off % 64) * 8, LogReg::int(15));
            }
            BodyOp::Store(v, b, off) => {
                a.and_i(LogReg::int(15), gp(b), 0x3f8);
                a.addq_i(LogReg::int(15), LogReg::int(15), 0x4000);
                a.stq(gp(v), i32::from(off % 64) * 8, LogReg::int(15));
            }
            BodyOp::Hammock(c, ia, ib) => {
                label += 1;
                let arm = format!("arm{label}");
                let join = format!("join{label}");
                a.and_i(LogReg::int(15), gp(c), 3);
                a.beq(LogReg::int(15), arm.clone());
                a.addq_i(gp(c.wrapping_add(1)), gp(c), i32::from(ia));
                a.br(join.clone());
                a.label(arm);
                a.addq_i(gp(c.wrapping_add(1)), gp(c), i32::from(ib));
                a.label(join);
            }
            BodyOp::SaveRestore(v, w) => {
                // The §2.4 idiom inline: push, save two, clobber, restore,
                // pop.
                a.lda(reg::SP, -16, reg::SP);
                a.stq(gp(v), 0, reg::SP);
                a.stq(gp(w), 8, reg::SP);
                a.addq_i(gp(v), reg::ZERO, 1);
                a.addq_i(gp(w), reg::ZERO, 2);
                a.ldq(gp(v), 0, reg::SP);
                a.ldq(gp(w), 8, reg::SP);
                a.lda(reg::SP, 16, reg::SP);
            }
        }
    }
    a.subq_i(LogReg::int(14), LogReg::int(14), 1);
    a.bne(LogReg::int(14), "loop");
    a.halt();
    a.assemble().expect("generated program assembles")
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(k, d, x, y)| BodyOp::Alu(k, d, x, y)),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>())
            .prop_map(|(k, d, x, i)| BodyOp::AluImm(k, d, x, i)),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(d, b, o)| BodyOp::Load(d, b, o)),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(v, b, o)| BodyOp::Store(v, b, o)),
        (any::<u8>(), -20i16..20, -20i16..20)
            .prop_map(|(c, x, y)| BodyOp::Hammock(c, x, y)),
        (any::<u8>(), any::<u8>()).prop_map(|(v, w)| BodyOp::SaveRestore(v, w)),
    ]
}

fn agree(program: &Program, cfg: SimConfig) -> Result<(), TestCaseError> {
    let mut interp = Interp::new(program, STACK_TOP);
    let stop = interp.run(200_000);
    prop_assert_eq!(stop, StopReason::Halted, "reference halts");
    let result = Simulator::new(program, cfg).run(interp.steps() + 8);
    prop_assert!(result.halted, "pipeline halts");
    // Re-run stepwise for register access.
    let mut sim = rix::sim::Simulator::new(program, cfg);
    while !sim.halted() && sim.cycle() < 2_000_000 {
        sim.step();
    }
    for i in 0..32 {
        let r = LogReg::int(i);
        prop_assert_eq!(sim.arch_reg(r), interp.reg(r), "register {} diverged", r);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random programs agree with the reference under the baseline and
    /// the full integration machine.
    #[test]
    fn random_programs_agree(ops in proptest::collection::vec(body_op(), 1..24), trips in any::<u8>()) {
        let program = build(&ops, trips);
        agree(&program, SimConfig::baseline())?;
        agree(&program, SimConfig::default())?;
    }

    /// ... under squash-only reuse with a direct-mapped IT (the most
    /// conflict-prone configuration), and with reverse integration in a
    /// small fully-associative IT (one set: every entry shares the slot
    /// index's probe chains and the LRU list).
    #[test]
    fn random_programs_agree_squash_dm(ops in proptest::collection::vec(body_op(), 1..16), trips in any::<u8>()) {
        let program = build(&ops, trips);
        let ic = IntegrationConfig::squash_reuse().with_it_geometry(64, 1);
        agree(&program, SimConfig::default().with_integration(ic))?;
        let ic = IntegrationConfig::plus_reverse().with_it_geometry(64, 64);
        agree(&program, SimConfig::default().with_integration(ic))?;
    }
}
