#!/usr/bin/env python3
"""Checks the machine code of generated flexspec units (x86-64).

    python3 tools/codegen_shape.py --cxx g++ --objdump objdump \\
        --include . --include build/src/apps/gen --include build/tests/gen \\
        --out-dir /tmp/shape \\
        build/src/apps/gen/nfs.flexspec.cc build/tests/gen/loop_shapes.flexspec.cc

Each source is compiled at -O2 and disassembled with `objdump -dr`. Every
opcode's step (src/marshal/spec_ops.h) is forced inline, so a generated
stream must fold to straight-line code: the check fails on any indirect
jump (`jmp *`: a kind switch that did not fold) and on any out-of-line call
to a step, a branch or back-edge definition, or a run op's helpers. The
calls left are the cold paths (ShortScalar, ShortBytes, EndRead, the error
builders) and the arena. It also fails unless each object holds the stream
bodies of both codecs (the XDR and the native reader and writer), so
neither instantiation goes unchecked. Python standard library only.

Exit status: 0 when every object has the shape, 1 when one does not, 2
when a source does not compile or objdump fails.
"""

import argparse
import os
import re
import subprocess
import sys

# Functions that must never be called out of line from a stream body.
FORBIDDEN = re.compile(
    r"\b(MarshalStep|UnmarshalStep|ReleaseStep|NextElement|SkippedOps|"
    r"GetFixedScalar|GetFixedBytes|PutFixedScalar|GetWord|GetRunOf|"
    r"TakeFixed|AppendFixed|LoadScalar|StoreScalar)\b")
# The stream bodies of each codec instantiation.
CODECS = ("XdrWriter", "NativeWriter", "XdrReader", "NativeReader")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INDIRECT_JUMP = re.compile(r"\bjmpq?\s+\*")
CALL = re.compile(r"\bcallq?\s+\S+(?:\s+<(.*)>)?")
RELOCATION = re.compile(r"\sR_X86_64_\w+\s+(.*?)(?:[-+]0x[0-9a-f]+)?$")


def shape(disassembly):
    """Returns (indirect jumps, forbidden calls, codecs seen) of an object."""
    jumps, calls, codecs = [], [], set()
    function = "?"
    pending_call = False
    for line in disassembly.splitlines():
        m = FUNCTION.match(line)
        if m:
            function = m.group(1)
            for codec in CODECS:
                if re.search(r"On<flexrpc::%s>" % codec, function):
                    codecs.add(codec)
            pending_call = False
            continue
        if INDIRECT_JUMP.search(line):
            jumps.append("%s: %s" % (function, line.strip()))
        m = CALL.search(line)
        if m:
            pending_call = True
            target = m.group(1) or ""
            if FORBIDDEN.search(target.split("+")[0]):
                calls.append("%s: calls %s" % (function, target))
            continue
        m = RELOCATION.search(line)
        if m and pending_call:
            if FORBIDDEN.search(m.group(1)):
                calls.append("%s: calls %s" % (function, m.group(1)))
        pending_call = False
    return jumps, calls, codecs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cxx", required=True)
    parser.add_argument("--objdump", default="objdump")
    parser.add_argument("--include", action="append", default=[])
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("sources", nargs="+")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    failed = False
    for source in args.sources:
        obj = os.path.join(args.out_dir,
                           os.path.basename(source).replace(".cc", ".o"))
        compile_cmd = [args.cxx, "-std=c++20", "-O2", "-c", source, "-o", obj]
        compile_cmd += ["-I" + d for d in args.include]
        try:
            subprocess.run(compile_cmd, check=True)
            disassembly = subprocess.run(
                [args.objdump, "-dr", "--no-show-raw-insn", "-C", obj],
                check=True, capture_output=True, text=True).stdout
        except (OSError, subprocess.CalledProcessError) as err:
            print("codegen_shape: %s: %s" % (source, err), file=sys.stderr)
            return 2
        jumps, calls, codecs = shape(disassembly)
        missing = [c for c in CODECS if c not in codecs]
        print("%s: %d indirect jumps, %d out-of-line step calls, codecs %s"
              % (os.path.basename(source), len(jumps), len(calls),
                 ", ".join(sorted(codecs)) or "none"))
        for problem in jumps + calls:
            print("  " + problem)
        if missing:
            print("  no stream body instantiated for " + ", ".join(missing))
        failed = failed or bool(jumps or calls or missing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
