#!/bin/sh
# Runner launcher for programs built against the scalar riscv_vector.h shim.
#
#   sh run-vlen.sh -cpu rv64,v=true,vlen=256,elen=64,vext_spec=v1.0 BINARY [ARGS...]
#
# Accepts the argument shape of vecport's default qemu-riscv64 runner
# template, maps the vlen=N field of -cpu onto VECPORT_VLEN, and runs the
# host binary in its place. When VECPORT_BENCH_RUNLOG names a file, each
# invocation appends the binary path to it, so callers can count runs.
vlen=128
if [ "$1" = "-cpu" ]; then
    case "$2" in
        *vlen=*) vlen=${2#*vlen=}; vlen=${vlen%%,*} ;;
    esac
    shift 2
fi
if [ -n "$VECPORT_BENCH_RUNLOG" ]; then
    printf '%s\n' "$1" >> "$VECPORT_BENCH_RUNLOG"
fi
ulimit -c 0  # candidates that overrun their buffers abort; leave no core files
VECPORT_VLEN=$vlen exec "$@"
