# Shell functions of the CI legs (.github/workflows/ci.yml); a step
# sources this file, then calls them.  A pipe fails if any stage does.
set -o pipefail

# The leak gate: no /dev/shm segment and no surviving python worker.
leak_gate() {
  sleep 1
  if ls /dev/shm | grep '^psm_'; then echo "leaked shared-memory segment"; exit 1; fi
  if pgrep -af '[p]ython.*(pytest|repro|multiprocessing)'; then
    echo "a python process outlived its step"; exit 1
  fi
}

# The drill problem: `dos <knobs>` prints its rho(E) table and more.
dos() { python -m repro dos --nx 8 --nz 4 --moments 64 --vectors 2 "$@"; }

# The rho(E) table of whatever ran before the pipe.
rho() { awk '/rho\(E\)/{t=1; next} t && NF == 2 {print; next} {t=0}'; }

# Each stdin line is `<precision> <command>`: the command's rho(E) table
# must equal its precision's reference (ref-<precision>.txt), and the
# leak gate runs after every row.
drills() {
  while read -r precision command; do
    echo "::group::$precision: $command"
    eval "$command" < /dev/null | rho | diff "ref-$precision.txt" - \
      || { echo "rho(E) moved: $command"; exit 1; }
    leak_gate
    echo "::endgroup::"
  done
}
