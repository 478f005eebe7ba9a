//! The independent output checker.
//!
//! Every generated program is executed on `denali-arch`'s simulator and
//! compared with the reference evaluator (`Gma::evaluate`, built on
//! `denali-term`'s term semantics) on seeded input vectors, and its
//! schedule is validated against the machine description. None of this
//! goes through the compiler's matcher or search: the reference is the
//! GMA's meaning, not another compilation. Served programs are checked
//! from the response bytes themselves, by parsing the listing back into
//! a program.

use std::collections::HashMap;

use denali_arch::{Instr, Machine, Operand, Program, Reg, Simulator, Unit};
use denali_lang::Gma;
use denali_prng::Rng;
use denali_term::value::Env;
use denali_term::Symbol;

/// Input values every check includes: zero, all-ones, the sign bit, and
/// a few boundaries around them.
const SPECIAL: [u64; 6] = [0, u64::MAX, 1 << 63, 1, (1 << 63) - 1, 0xffff_ffff];

/// Input vectors per check: every special value in every input
/// position, then seeded random values.
const VECTORS: usize = 16;

/// Checks `program` against the meaning of `gma` on seeded input
/// vectors, after validating its schedule on `machine`.
///
/// # Errors
///
/// Describes the first validation failure, simulation failure or
/// output mismatch.
pub fn check_program(
    gma: &Gma,
    program: &Program,
    machine: &Machine,
    seed: u64,
) -> Result<(), String> {
    denali_arch::validate(program, machine)
        .map_err(|e| format!("{}: schedule invalid: {e}", gma.name))?;
    let inputs = gma.inputs();
    let mut rng = Rng::new(seed ^ 0xc4ec_0000_0000_0001);
    let sim = Simulator::new(machine);
    for k in 0..VECTORS {
        let values: Vec<u64> = (0..inputs.len())
            .map(|j| {
                if k < SPECIAL.len() {
                    SPECIAL[(k + j) % SPECIAL.len()]
                } else {
                    rng.next_u64()
                }
            })
            .collect();
        // Memory around every input value, so pointer inputs (and the
        // loads a loop body makes past them) read seeded words.
        let mut memory: HashMap<u64, u64> = HashMap::new();
        for &v in &values {
            for i in 0..8u64 {
                memory.insert(v.wrapping_add(8 * i), rng.next_u64());
            }
        }
        let mut env = Env::new();
        for (name, value) in inputs.iter().zip(&values) {
            env.set_word(*name, *value);
        }
        env.set_mem("M", memory.clone());
        define_declared_ops(&mut env);
        let expected = gma
            .evaluate(&env)
            .map_err(|e| format!("{}: reference evaluation failed: {e}", gma.name))?;
        let named: Vec<(&str, u64)> = inputs
            .iter()
            .zip(&values)
            .filter(|(name, _)| program.input_reg(**name).is_some())
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        let outcome = sim
            .run_named(program, &named, memory)
            .map_err(|e| format!("{}: simulation failed: {e}", gma.name))?;
        let mismatch = |what: &str, got: u64, want: u64| {
            format!(
                "{}: {what} is {got:#x}, expected {want:#x} on inputs {values:x?}",
                gma.name
            )
        };
        for (name, want) in &expected.assigns {
            let reg = program
                .output_reg(*name)
                .ok_or_else(|| format!("{}: no output register for {name}", gma.name))?;
            let got = outcome.regs.get(&reg).copied().unwrap_or(0);
            if got != *want {
                return Err(mismatch(name.as_str(), got, *want));
            }
        }
        if let Some(want) = expected.guard {
            let reg = program
                .output_reg(Symbol::intern("guard"))
                .ok_or_else(|| format!("{}: no guard register", gma.name))?;
            let got = outcome.regs.get(&reg).copied().unwrap_or(0);
            if got != want {
                return Err(mismatch("guard", got, want));
            }
        }
        if let Some(mem) = &expected.memory {
            for (addr, want) in mem {
                let got = outcome.memory.get(addr).copied().unwrap_or(0);
                if got != *want {
                    return Err(mismatch(&format!("memory[{addr:#x}]"), got, *want));
                }
            }
        }
    }
    Ok(())
}

/// The declared operations of the benchmark's programs, defined from
/// their meaning: `add` is the end-around-carry (ones' complement) sum
/// and `carry` the carry out of a 64-bit addition.
fn define_declared_ops(env: &mut Env) {
    env.define_op("add", |a| {
        let s = a[0].wrapping_add(a[1]);
        s.wrapping_add(u64::from(s < a[0]))
    });
    env.define_op("carry", |a| u64::from(a[0].wrapping_add(a[1]) < a[0]));
}

/// The cycle by which every result of `program` is available: the
/// latest issue cycle plus that instruction's latency. Comparing two
/// programs by this measure is fair whatever their last instructions
/// are (`Program::cycles` counts issue cycles only, so a schedule
/// ending in a load looks shorter than it runs).
pub fn makespan(program: &Program, machine: &Machine) -> u32 {
    program
        .instrs
        .iter()
        .map(|i| i.cycle + machine.info(i.op).map_or(1, |info| info.latency))
        .max()
        .unwrap_or(0)
}

/// Checks that `program` runs no longer than the `denali-baseline`
/// rewrite program for `gma`, where the rewriter covers the GMA.
///
/// # Errors
///
/// Names both makespans when the generated program is slower.
pub fn check_against_baseline(
    gma: &Gma,
    program: &Program,
    machine: &Machine,
) -> Result<(), String> {
    match denali_baseline::rewrite_compile(gma, machine) {
        Ok(baseline) if makespan(&baseline, machine) < makespan(program, machine) => Err(format!(
            "{}: results ready after {} cycles, but the baseline rewrite program's after {}",
            gma.name,
            makespan(program, machine),
            makespan(&baseline, machine)
        )),
        _ => Ok(()),
    }
}

/// Parses a program listing (the `Program::listing` text a server
/// response carries) back into a program, so that served bytes can be
/// simulated and validated directly.
///
/// # Errors
///
/// Describes the first line that does not parse.
pub fn parse_listing(text: &str) -> Result<Program, String> {
    let mut program = Program::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("// Inputs:") {
            program.inputs = parse_pairs(rest)?;
            continue;
        }
        if let Some(rest) = line.strip_prefix("// Outputs:") {
            program.outputs = parse_pairs(rest)?;
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            program.name = label.to_owned();
            continue;
        }
        let (text, place) = line
            .split_once(" # ")
            .ok_or_else(|| format!("listing line without a cycle: {line}"))?;
        let place = place.split(" ; ").next().unwrap_or(place);
        let Some((cycle, unit)) = place.split_once(", ") else {
            continue; // a nop slot: `nop # cycle`
        };
        let cycle: u32 = cycle
            .trim()
            .parse()
            .map_err(|_| format!("bad cycle in: {line}"))?;
        let unit = *Unit::ALL
            .iter()
            .find(|u| u.name() == unit.trim())
            .ok_or_else(|| format!("bad unit in: {line}"))?;
        program.instrs.push(parse_instr(text.trim(), cycle, unit)?);
    }
    Ok(program)
}

fn parse_pairs(text: &str) -> Result<Vec<(Symbol, Reg)>, String> {
    text.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|pair| {
            let (name, reg) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad register pair {pair}"))?;
            Ok((Symbol::intern(name), parse_reg(reg)?))
        })
        .collect()
}

fn parse_reg(text: &str) -> Result<Reg, String> {
    text.trim()
        .strip_prefix('$')
        .and_then(|n| n.parse().ok())
        .map(Reg)
        .ok_or_else(|| format!("bad register {text}"))
}

fn parse_operand(text: &str) -> Result<Operand, String> {
    let text = text.trim();
    if text.starts_with('$') {
        return parse_reg(text).map(Operand::Reg);
    }
    let value = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    value
        .map(Operand::Imm)
        .map_err(|_| format!("bad operand {text}"))
}

/// `disp($base)` → (base, displacement).
fn parse_address(text: &str) -> Result<(Operand, Operand), String> {
    let (disp, base) = text
        .trim()
        .strip_suffix(')')
        .and_then(|t| t.split_once('('))
        .ok_or_else(|| format!("bad address {text}"))?;
    Ok((parse_operand(base)?, parse_operand(disp)?))
}

fn parse_instr(text: &str, cycle: u32, unit: Unit) -> Result<Instr, String> {
    let (op, rest) = text.split_once(' ').unwrap_or((text, ""));
    let parts: Vec<&str> = rest.split(", ").map(str::trim).collect();
    let reg = |i: usize| {
        parts
            .get(i)
            .ok_or(format!("short instruction {text}"))
            .and_then(|p| parse_reg(p))
    };
    let (operands, dest) = match op {
        "ldq" => {
            let (base, disp) = parse_address(parts.get(1).ok_or(format!("bad load {text}"))?)?;
            (vec![base, disp], Some(reg(0)?))
        }
        "stq" => {
            let value = parse_operand(parts[0])?;
            let (base, disp) = parse_address(parts.get(1).ok_or(format!("bad store {text}"))?)?;
            (vec![value, base, disp], None)
        }
        "ldiq" => (
            vec![parse_operand(
                parts.get(1).ok_or(format!("bad ldiq {text}"))?,
            )?],
            Some(reg(0)?),
        ),
        "mov" => (vec![parse_operand(parts[0])?], Some(reg(1)?)),
        _ => {
            let (last, sources) = parts
                .split_last()
                .ok_or(format!("empty instruction {text}"))?;
            let operands = sources
                .iter()
                .map(|p| parse_operand(p))
                .collect::<Result<Vec<_>, _>>()?;
            let dest = if *last == "-" {
                None
            } else {
                Some(parse_reg(last)?)
            };
            (operands, dest)
        }
    };
    Ok(Instr {
        op: Symbol::intern(op),
        operands,
        dest,
        cycle,
        unit,
        comment: String::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_core::{Denali, Options};

    fn compiled(source: &str) -> (Gma, Program) {
        let denali = Denali::new(Options {
            threads: 1,
            ..Options::default()
        });
        let result = denali.compile_source(source).expect("compiles");
        let main = result.main();
        (main.gma.clone(), main.program.clone())
    }

    const SOURCE: &str =
        "(\\procdecl f ((a long) (b long)) long (:= (\\res (+ (* a 8) (+ b 100000)))))";

    #[test]
    fn accepts_the_compiled_program_and_its_listing() {
        let (gma, program) = compiled(SOURCE);
        let machine = Machine::ev6();
        check_program(&gma, &program, &machine, 1).expect("compiled program is correct");
        let parsed = parse_listing(&program.listing(machine.issue_width())).expect("parses");
        assert_eq!(
            parsed.instrs,
            program
                .instrs
                .iter()
                .map(|i| Instr {
                    comment: String::new(),
                    ..i.clone()
                })
                .collect::<Vec<_>>()
        );
        check_program(&gma, &parsed, &machine, 1).expect("parsed listing is correct");
    }

    #[test]
    fn rejects_one_mutated_operand() {
        let (gma, mut program) = compiled(SOURCE);
        let machine = Machine::ev6();
        let imm = program
            .instrs
            .iter_mut()
            .flat_map(|i| i.operands.iter_mut())
            .find(|o| matches!(o, Operand::Imm(_)))
            .expect("an immediate operand");
        if let Operand::Imm(v) = imm {
            *v += 1;
        }
        assert!(check_program(&gma, &program, &machine, 1).is_err());
    }

    #[test]
    fn rejects_one_mutated_opcode() {
        let (gma, mut program) = compiled(SOURCE);
        let machine = Machine::ev6();
        let instr = program
            .instrs
            .iter_mut()
            .find(|i| i.op.as_str() == "addq")
            .expect("an addq");
        instr.op = Symbol::intern("subq");
        assert!(check_program(&gma, &program, &machine, 1).is_err());
    }

    #[test]
    fn rejects_a_program_the_machine_cannot_issue() {
        let (gma, mut program) = compiled(SOURCE);
        let machine = Machine::ev6();
        // Issue everything at cycle 0: the dependent add reads a result
        // that is not ready yet.
        for instr in &mut program.instrs {
            instr.cycle = 0;
        }
        assert!(check_program(&gma, &program, &machine, 1).is_err());
    }

    #[test]
    fn declared_ops_follow_their_meaning() {
        let mut env = Env::new();
        define_declared_ops(&mut env);
        env.set_word("a", u64::MAX).set_word("b", 2);
        let add = denali_term::Term::call(
            "add",
            vec![denali_term::Term::leaf("a"), denali_term::Term::leaf("b")],
        );
        let carry = denali_term::Term::call(
            "carry",
            vec![denali_term::Term::leaf("a"), denali_term::Term::leaf("b")],
        );
        assert_eq!(env.eval_word(&add).unwrap(), 2);
        assert_eq!(env.eval_word(&carry).unwrap(), 1);
    }
}
