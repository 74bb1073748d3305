#!/bin/sh
# Hermetic-build guard: every dependency of every workspace crate must be
# an internal path crate or one of the vendored compat shims. A new name
# in any [dependencies]/[dev-dependencies]/[build-dependencies] section
# that is not on the allowlist fails CI — the container builds offline,
# so a registry dependency would only be discovered at release time.
#
# The script also pins the vendored sources themselves: every file under
# crates/compat/ must hash to the entry recorded in
# tools/vendored_deps.sha256, so a silent edit to a "third-party" shim is
# as loud as a new dependency. After a deliberate change, regenerate the
# manifest with:
#
#   tools/check_vendored_deps.sh --update
#
# Usage: tools/check_vendored_deps.sh [--update]   (from the repo root)

set -eu

MANIFEST="tools/vendored_deps.sha256"

hash_compat() {
    # Stable order + stable tool: sha256sum over every file under
    # crates/compat/, paths sorted bytewise.
    find crates/compat -type f | LC_ALL=C sort | xargs sha256sum
}

if [ "${1:-}" = "--update" ]; then
    hash_compat > "$MANIFEST"
    echo "vendored-deps manifest: rewrote $MANIFEST ($(wc -l < "$MANIFEST") files)"
    exit 0
fi

ALLOWLIST="ldp-graph ldp-mechanisms ldp-protocols poison-core poison-defense ldp-obs ldp-collector poison-experiments poison-bench rand proptest"

status=0
for manifest in Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml; do
    [ -f "$manifest" ] || continue
    # Extract dependency names: lines of the form `name = ...` inside any
    # *dependencies* section (stop at the next section header).
    deps=$(awk '
        /^\[.*dependencies[^]]*\]$/ { in_deps = 1; next }
        /^\[/ { in_deps = 0 }
        in_deps && /^[a-zA-Z0-9_-]+[ \t]*=/ {
            split($0, parts, /[ \t=]/); print parts[1]
        }
    ' "$manifest")
    for dep in $deps; do
        ok=0
        for allowed in $ALLOWLIST; do
            if [ "$dep" = "$allowed" ]; then
                ok=1
                break
            fi
        done
        if [ "$ok" -eq 0 ]; then
            echo "ERROR: $manifest depends on '$dep', which is not on the vendored allowlist" >&2
            echo "       (allowlist: $ALLOWLIST)" >&2
            echo "       The workspace builds offline; add a vendored subset under crates/compat/" >&2
            echo "       and extend the allowlist in tools/check_vendored_deps.sh deliberately." >&2
            status=1
        fi
    done
done

if [ ! -f "$MANIFEST" ]; then
    echo "ERROR: $MANIFEST is missing; run tools/check_vendored_deps.sh --update" >&2
    status=1
elif ! hash_compat | diff -u "$MANIFEST" - >/dev/null 2>&1; then
    echo "ERROR: crates/compat/ does not match $MANIFEST:" >&2
    hash_compat | diff -u "$MANIFEST" - >&2 || true
    echo "       Vendored sources are pinned; if the change is deliberate," >&2
    echo "       regenerate with tools/check_vendored_deps.sh --update." >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "vendored-deps check: OK (all dependencies on the allowlist; compat sources match $MANIFEST)"
fi
exit "$status"
