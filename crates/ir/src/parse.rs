//! Textual IR parser — the inverse of [`crate::pretty`].
//!
//! Lets modules be written, stored, and diffed as text (handy for golden
//! tests, bug reports, and hand-written kernel assembly à la §VI). The
//! grammar is exactly what [`crate::pretty::fmt_module`] prints:
//!
//! ```text
//! module <name>
//! global <name> : <words> words @ <hex-addr>
//! fn <name>(params=<n>) regs=<n> {
//! bb0:
//!     r2 = add r0, 4
//!     r3 = ldr [r2+8]
//!     str r3, [0x1000]
//!     --- boundary Rg0 ---
//!     ckpt r3
//!     br r1 ? bb1 : bb2
//!     ret r3
//! }
//! ```
//!
//! Addresses for globals are re-laid-out on parse (the `@` address is
//! informational), so a pretty→parse→pretty round trip is stable.

use crate::function::{Block, BlockId, Function};
use crate::inst::{AtomicOp, BinOp, Inst, MemRef, Operand};
use crate::module::{FuncId, Module};
use crate::types::{Reg, RegionId, Word};
use std::fmt;

/// A parse error with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Parse a module from its textual form.
///
/// # Errors
/// Returns the first syntax error with its line number. Each parsed function
/// body is additionally structurally validated (`Function::validate`); a
/// violation is reported at the function's header line.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut lines = text.lines().enumerate().peekable();
    let mut module: Option<Module> = None;

    while let Some((ln, raw)) = lines.next() {
        let line = raw.trim();
        let n = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("module ") {
            module = Some(Module::new(name.trim()));
        } else if let Some(rest) = line.strip_prefix("global ") {
            let m = module.as_mut().ok_or(ParseError {
                line: n,
                msg: "global before module header".into(),
            })?;
            // `<name> : <words> words @ <addr>` (the address is recomputed)
            let (name, rest) = rest.split_once(':').ok_or(ParseError {
                line: n,
                msg: "expected `name : N words`".into(),
            })?;
            let words: Word = rest
                .split_whitespace()
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or(ParseError {
                    line: n,
                    msg: "bad word count".into(),
                })?;
            m.add_global(name.trim(), words);
        } else if let Some(rest) = line.strip_prefix("fn ") {
            let m = module.as_mut().ok_or(ParseError {
                line: n,
                msg: "fn before module header".into(),
            })?;
            let (name, params, regs) = parse_fn_header(n, rest)?;
            let mut blocks: Vec<Block> = Vec::new();
            loop {
                let Some(&(ln2, raw2)) = lines.peek() else {
                    return err(n, "unterminated function body");
                };
                let l2 = raw2.trim();
                let n2 = ln2 + 1;
                lines.next();
                if l2 == "}" {
                    break;
                }
                if l2.is_empty() {
                    continue;
                }
                if let Some(bb) = l2.strip_prefix("bb") {
                    let id: usize =
                        bb.strip_suffix(':')
                            .and_then(|x| x.parse().ok())
                            .ok_or(ParseError {
                                line: n2,
                                msg: "bad block label".into(),
                            })?;
                    if id != blocks.len() {
                        return err(n2, format!("blocks must be dense: got bb{id}"));
                    }
                    blocks.push(Block::default());
                } else {
                    let block = blocks.last_mut().ok_or(ParseError {
                        line: n2,
                        msg: "instruction before block".into(),
                    })?;
                    block.insts.push(parse_inst(n2, l2)?);
                }
            }
            let f = Function {
                name,
                param_count: params,
                reg_count: regs,
                blocks,
            };
            f.validate().map_err(|msg| ParseError { line: n, msg })?;
            let is_main = f.name == "main";
            let id = m.add_function(f);
            if is_main {
                m.set_entry(id);
            }
        } else {
            return err(n, format!("unrecognized line: {line}"));
        }
    }

    let m = module.ok_or(ParseError {
        line: 1,
        msg: "missing module header".into(),
    })?;
    Ok(m)
}

fn parse_fn_header(line: usize, rest: &str) -> Result<(String, u32, u32), ParseError> {
    // `<name>(params=<n>) regs=<n> {`
    let (name, rest) = rest.split_once('(').ok_or(ParseError {
        line,
        msg: "expected `(` in fn header".into(),
    })?;
    let (params, rest) = rest
        .strip_prefix("params=")
        .and_then(|r| r.split_once(')'))
        .ok_or(ParseError {
            line,
            msg: "expected `params=N)`".into(),
        })?;
    let params: u32 = params.parse().map_err(|_| ParseError {
        line,
        msg: "bad param count".into(),
    })?;
    let regs: u32 = rest
        .trim()
        .strip_prefix("regs=")
        .and_then(|r| r.strip_suffix('{'))
        .map(str::trim)
        .and_then(|r| r.parse().ok())
        .ok_or(ParseError {
            line,
            msg: "expected `regs=N {`".into(),
        })?;
    Ok((name.trim().to_string(), params, regs))
}

fn parse_reg(line: usize, tok: &str) -> Result<Reg, ParseError> {
    tok.strip_prefix('r')
        .and_then(|x| x.parse().ok())
        .map(Reg)
        .ok_or(ParseError {
            line,
            msg: format!("expected register, got `{tok}`"),
        })
}

fn parse_imm(line: usize, tok: &str) -> Result<Word, ParseError> {
    let v = if let Some(hex) = tok.strip_prefix("0x") {
        Word::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    };
    v.ok_or(ParseError {
        line,
        msg: format!("expected immediate, got `{tok}`"),
    })
}

fn parse_operand(line: usize, tok: &str) -> Result<Operand, ParseError> {
    if tok.starts_with('r') && tok[1..].chars().all(|c| c.is_ascii_digit()) {
        Ok(Operand::Reg(parse_reg(line, tok)?))
    } else {
        Ok(Operand::Imm(parse_imm(line, tok)?))
    }
}

fn parse_memref(line: usize, tok: &str) -> Result<MemRef, ParseError> {
    // `[base]`, `[base+off]`, `[base-off]`
    let inner = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or(ParseError {
            line,
            msg: format!("expected [mem], got `{tok}`"),
        })?;
    // Find a +/- separating base from offset (skip the 0x prefix region).
    let mut split = None;
    for (i, c) in inner.char_indices().skip(1) {
        if c == '+' || c == '-' {
            split = Some(i);
            break;
        }
    }
    match split {
        None => Ok(MemRef {
            base: parse_operand(line, inner)?,
            offset: 0,
        }),
        Some(i) => {
            let base = parse_operand(line, &inner[..i])?;
            let sign = if inner.as_bytes()[i] == b'-' { -1 } else { 1 };
            let off: i64 = inner[i + 1..].parse().map_err(|_| ParseError {
                line,
                msg: "bad offset".into(),
            })?;
            Ok(MemRef {
                base,
                offset: sign * off,
            })
        }
    }
}

fn parse_block_id(line: usize, tok: &str) -> Result<BlockId, ParseError> {
    tok.strip_prefix("bb")
        .and_then(|x| x.parse().ok())
        .map(BlockId)
        .ok_or(ParseError {
            line,
            msg: format!("expected block, got `{tok}`"),
        })
}

fn binop_of(name: &str) -> Option<BinOp> {
    Some(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "divu" => BinOp::DivU,
        "remu" => BinOp::RemU,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shrl" => BinOp::ShrL,
        "shra" => BinOp::ShrA,
        "cmpeq" => BinOp::CmpEq,
        "cmpne" => BinOp::CmpNe,
        "cmpltu" => BinOp::CmpLtU,
        "cmplts" => BinOp::CmpLtS,
        "minu" => BinOp::MinU,
        "maxu" => BinOp::MaxU,
        _ => return None,
    })
}

/// Parse one instruction line (the [`crate::pretty::fmt_inst`] format).
pub fn parse_inst(line: usize, text: &str) -> Result<Inst, ParseError> {
    let text = text.trim();
    // boundary / ckpt / fence / halt / ret / out / str / br
    if let Some(rest) = text.strip_prefix("--- boundary Rg") {
        let id: u32 = rest
            .strip_suffix(" ---")
            .and_then(|x| x.parse().ok())
            .ok_or(ParseError {
                line,
                msg: "bad boundary".into(),
            })?;
        return Ok(Inst::Boundary { id: RegionId(id) });
    }
    if let Some(r) = text.strip_prefix("ckpt ") {
        return Ok(Inst::Ckpt {
            reg: parse_reg(line, r.trim())?,
        });
    }
    if text == "fence" {
        return Ok(Inst::Fence);
    }
    if text == "pfence" {
        return Ok(Inst::PFence);
    }
    if let Some(m) = text.strip_prefix("flush ") {
        return Ok(Inst::FlushLine {
            addr: parse_memref(line, m.trim())?,
        });
    }
    if text == "halt" {
        return Ok(Inst::Halt);
    }
    if text == "ret" {
        return Ok(Inst::Ret { val: None });
    }
    if let Some(v) = text.strip_prefix("ret ") {
        return Ok(Inst::Ret {
            val: Some(parse_operand(line, v.trim())?),
        });
    }
    if let Some(v) = text.strip_prefix("out ") {
        return Ok(Inst::Out {
            val: parse_operand(line, v.trim())?,
        });
    }
    if let Some(rest) = text.strip_prefix("str ") {
        let (src, mem) = rest.split_once(',').ok_or(ParseError {
            line,
            msg: "str needs `src, [mem]`".into(),
        })?;
        return Ok(Inst::Store {
            src: parse_operand(line, src.trim())?,
            addr: parse_memref(line, mem.trim())?,
        });
    }
    if text.contains("call fn") {
        return parse_call(line, text);
    }
    if let Some(rest) = text.strip_prefix("br ") {
        let rest = rest.trim();
        if let Some((cond, arms)) = rest.split_once('?') {
            let (t, f) = arms.split_once(':').ok_or(ParseError {
                line,
                msg: "condbr needs `? bbT : bbF`".into(),
            })?;
            return Ok(Inst::CondBr {
                cond: parse_operand(line, cond.trim())?,
                if_true: parse_block_id(line, t.trim())?,
                if_false: parse_block_id(line, f.trim())?,
            });
        }
        return Ok(Inst::Br {
            target: parse_block_id(line, rest)?,
        });
    }
    // `rd = ...` forms
    let (dst, rhs) = text.split_once('=').ok_or(ParseError {
        line,
        msg: format!("unrecognized instruction `{text}`"),
    })?;
    let dst = parse_reg(line, dst.trim())?;
    let rhs = rhs.trim();
    if let Some(m) = rhs.strip_prefix("ldr ") {
        return Ok(Inst::Load {
            dst,
            addr: parse_memref(line, m.trim())?,
        });
    }
    if let Some(v) = rhs.strip_prefix("mov ") {
        return Ok(Inst::Mov {
            dst,
            src: parse_operand(line, v.trim())?,
        });
    }
    if let Some(rest) = rhs.strip_prefix("xadd ") {
        let (mem, src) = rest.split_once(',').ok_or(ParseError {
            line,
            msg: "xadd needs `[mem], src`".into(),
        })?;
        return Ok(Inst::AtomicRmw {
            op: AtomicOp::FetchAdd,
            dst,
            addr: parse_memref(line, mem.trim())?,
            src: parse_operand(line, src.trim())?,
            expected: Operand::imm(0),
        });
    }
    if let Some(rest) = rhs.strip_prefix("xchg ") {
        let (mem, src) = rest.split_once(',').ok_or(ParseError {
            line,
            msg: "xchg needs `[mem], src`".into(),
        })?;
        return Ok(Inst::AtomicRmw {
            op: AtomicOp::Swap,
            dst,
            addr: parse_memref(line, mem.trim())?,
            src: parse_operand(line, src.trim())?,
            expected: Operand::imm(0),
        });
    }
    if let Some(rest) = rhs.strip_prefix("cas ") {
        // `[mem], [mem] == expected -> new`
        let (mem, rest) = rest.split_once(',').ok_or(ParseError {
            line,
            msg: "cas needs `[mem], …`".into(),
        })?;
        let (_, cond) = rest.split_once("==").ok_or(ParseError {
            line,
            msg: "cas needs `== expected -> new`".into(),
        })?;
        let (expected, new) = cond.split_once("->").ok_or(ParseError {
            line,
            msg: "cas needs `-> new`".into(),
        })?;
        return Ok(Inst::AtomicRmw {
            op: AtomicOp::Cas,
            dst,
            addr: parse_memref(line, mem.trim())?,
            src: parse_operand(line, new.trim())?,
            expected: parse_operand(line, expected.trim())?,
        });
    }
    // `op lhs, rhs`
    let (opname, args) = rhs.split_once(' ').ok_or(ParseError {
        line,
        msg: format!("unrecognized rhs `{rhs}`"),
    })?;
    let op = binop_of(opname).ok_or(ParseError {
        line,
        msg: format!("unknown opcode `{opname}`"),
    })?;
    let (l, r) = args.split_once(',').ok_or(ParseError {
        line,
        msg: "binary op needs two operands".into(),
    })?;
    Ok(Inst::Binary {
        op,
        dst,
        lhs: parse_operand(line, l.trim())?,
        rhs: parse_operand(line, r.trim())?,
    })
}

/// Look up `fn<id>` call targets is unsupported in text form: calls are
/// printed as `call fnN(...)` and parsed back by index.
pub fn parse_call(line: usize, text: &str) -> Result<Inst, ParseError> {
    // `[rd =] call fnN(a, b) [save[rX,rY]]`
    let (dst, rest) = match text.split_once("call ") {
        Some((pre, rest)) => {
            let pre = pre.trim().trim_end_matches('=').trim();
            let dst = if pre.is_empty() {
                None
            } else {
                Some(parse_reg(line, pre)?)
            };
            (dst, rest)
        }
        None => return err(line, "not a call"),
    };
    let (fname, rest) = rest.split_once('(').ok_or(ParseError {
        line,
        msg: "call needs `(`".into(),
    })?;
    let fid: u32 = fname
        .trim()
        .strip_prefix("fn")
        .and_then(|x| x.parse().ok())
        .ok_or(ParseError {
            line,
            msg: "call target must be fnN".into(),
        })?;
    let (args_s, rest) = rest.split_once(')').ok_or(ParseError {
        line,
        msg: "call needs `)`".into(),
    })?;
    let mut args = Vec::new();
    for a in args_s.split(',').map(str::trim).filter(|a| !a.is_empty()) {
        args.push(parse_operand(line, a)?);
    }
    let mut save_regs = Vec::new();
    if let Some(s) = rest.trim().strip_prefix("save[") {
        let s = s.strip_suffix(']').ok_or(ParseError {
            line,
            msg: "save needs `]`".into(),
        })?;
        for r in s.split(',').map(str::trim).filter(|r| !r.is_empty()) {
            save_regs.push(parse_reg(line, r)?);
        }
    }
    Ok(Inst::Call {
        func: FuncId(fid),
        args,
        ret: dst,
        save_regs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::{fmt_inst, fmt_module};

    #[test]
    fn parse_simple_instructions() {
        assert_eq!(
            parse_inst(1, "r2 = add r0, 4").unwrap(),
            Inst::binary(BinOp::Add, Reg(2), Reg(0).into(), Operand::imm(4))
        );
        assert_eq!(
            parse_inst(1, "r1 = ldr [r0+8]").unwrap(),
            Inst::load(Reg(1), MemRef::reg(Reg(0), 8))
        );
        assert_eq!(
            parse_inst(1, "str 1, [64]").unwrap(),
            Inst::store(Operand::imm(1), MemRef::abs(64))
        );
        assert_eq!(
            parse_inst(1, "--- boundary Rg7 ---").unwrap(),
            Inst::Boundary { id: RegionId(7) }
        );
        assert_eq!(
            parse_inst(1, "ckpt r3").unwrap(),
            Inst::Ckpt { reg: Reg(3) }
        );
        assert_eq!(parse_inst(1, "halt").unwrap(), Inst::Halt);
        assert_eq!(
            parse_inst(1, "ret r5").unwrap(),
            Inst::Ret {
                val: Some(Reg(5).into())
            }
        );
        assert_eq!(
            parse_inst(1, "br r1 ? bb2 : bb3").unwrap(),
            Inst::CondBr {
                cond: Reg(1).into(),
                if_true: BlockId(2),
                if_false: BlockId(3)
            }
        );
    }

    #[test]
    fn inst_round_trips_through_pretty() {
        let insts = vec![
            Inst::binary(BinOp::Xor, Reg(9), Reg(1).into(), Operand::imm(0x1234)),
            Inst::load(Reg(3), MemRef::reg(Reg(2), -16)),
            Inst::store(Reg(4).into(), MemRef::abs(0x100000000)),
            Inst::Mov {
                dst: Reg(0),
                src: Operand::imm(7),
            },
            Inst::Br { target: BlockId(4) },
            Inst::CondBr {
                cond: Reg(2).into(),
                if_true: BlockId(1),
                if_false: BlockId(2),
            },
            Inst::Boundary { id: RegionId(12) },
            Inst::Ckpt { reg: Reg(30) },
            Inst::Out {
                val: Operand::imm(9),
            },
            Inst::Fence,
            Inst::FlushLine {
                addr: MemRef::reg(Reg(5), 64),
            },
            Inst::FlushLine {
                addr: MemRef::abs(0x2000),
            },
            Inst::PFence,
            Inst::Halt,
            Inst::Ret { val: None },
            Inst::Ret {
                val: Some(Reg(1).into()),
            },
        ];
        for inst in insts {
            let text = fmt_inst(&inst);
            let back = parse_inst(1, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, inst, "{text}");
        }
    }

    #[test]
    fn atomic_round_trips() {
        let rmw = Inst::AtomicRmw {
            op: AtomicOp::FetchAdd,
            dst: Reg(1),
            addr: MemRef::abs(64),
            src: Operand::imm(5),
            expected: Operand::imm(0),
        };
        let back = parse_inst(1, &fmt_inst(&rmw)).unwrap();
        assert_eq!(back, rmw);
        let cas = Inst::AtomicRmw {
            op: AtomicOp::Cas,
            dst: Reg(1),
            addr: MemRef::abs(64),
            src: Operand::imm(5),
            expected: Operand::imm(2),
        };
        let back = parse_inst(1, &fmt_inst(&cas)).unwrap();
        assert_eq!(back, cas);
    }

    #[test]
    fn call_round_trips() {
        let call = Inst::Call {
            func: FuncId(3),
            args: vec![Reg(1).into(), Operand::imm(9)],
            ret: Some(Reg(7)),
            save_regs: vec![Reg(2), Reg(4)],
        };
        let text = fmt_inst(&call);
        assert_eq!(parse_call(1, &text).unwrap(), call);
        let bare = Inst::Call {
            func: FuncId(0),
            args: vec![],
            ret: None,
            save_regs: vec![],
        };
        assert_eq!(parse_call(1, &fmt_inst(&bare)).unwrap(), bare);
    }

    #[test]
    fn module_round_trips() {
        use crate::builder::{build_counted_loop, FunctionBuilder};
        let mut m = Module::new("rt");
        let g = m.add_global("data", 8);
        let mut b = FunctionBuilder::new("main", 0);
        let e = b.entry();
        let (_, exit) = build_counted_loop(&mut b, e, Operand::imm(5), |b, bb, i| {
            let v = b.load(bb, MemRef::global(g, 0));
            let s = b.bin(bb, BinOp::Add, v.into(), i.into());
            b.store(bb, s.into(), MemRef::global(g, 0));
        });
        let v = b.load(exit, MemRef::global(g, 0));
        b.push(
            exit,
            Inst::Ret {
                val: Some(v.into()),
            },
        );
        let f = m.add_function(b.build());
        m.set_entry(f);

        let text = fmt_module(&m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(parsed.validate().is_ok(), "{:?}", parsed.validate());
        // Same behaviour.
        let a = crate::interp::run(&m, 10_000).unwrap();
        let b2 = crate::interp::run(&parsed, 10_000).unwrap();
        assert_eq!(a.return_value, b2.return_value);
        // Pretty → parse → pretty is a fixpoint.
        assert_eq!(fmt_module(&parsed), text);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_module("module m\nglobal g : x words @ 0x0").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_inst(9, "r1 = frobnicate r2, r3").unwrap_err();
        assert_eq!(e.line, 9);
        assert!(e.to_string().contains("frobnicate"));
        let e = parse_module("global g : 4 words @ 0").unwrap_err();
        assert!(e.msg.contains("before module"));
    }

    #[test]
    fn invalid_bodies_are_errors_at_the_function_header() {
        // A register beyond `regs=` and a branch to a missing block would
        // index out of bounds in every later pass; the parser rejects them.
        let text = "module m\n\nfn main(params=0) regs=2 {\nbb0:\n    r3000000000 = add r1, 1\n    halt\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains("out of range"), "{e}");
        let text = "module m\nfn main(params=0) regs=1 {\nbb0:\n    br bb7\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("bb7"), "{e}");
    }

    #[test]
    fn dense_block_labels_required() {
        let text = "module m\nfn main(params=0) regs=1 {\nbb1:\n    halt\n}\n";
        let e = parse_module(text).unwrap_err();
        assert!(e.msg.contains("dense"), "{e}");
    }
}
