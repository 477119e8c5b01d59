#!/usr/bin/env bash
# janusd end-to-end smoke: boot the daemon with a real two-tenant
# catalog, decide as both tenants, exhaust a quota into 429s, hot-reload
# over PUT /v1/catalog (janusctl) and over SIGHUP, then drain-shutdown
# cleanly. Run from the repository root:
#
#   ./scripts/e2e_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
bin="$workdir/bin"
mkdir -p "$bin"
janusd_pid=""
cleanup() {
  if [[ -n "$janusd_pid" ]] && kill -0 "$janusd_pid" 2>/dev/null; then
    kill -9 "$janusd_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "== build janusd + janusctl (version-stamped)"
go build -ldflags "-X main.version=e2e-smoke" -o "$bin/janusd" ./cmd/janusd
go build -o "$bin/janusctl" ./cmd/janusctl

echo "== synthesize bundles for both tenants (reduced sample counts)"
"$bin/janusctl" profile -workflow ia -samples 300 -seed 7 -o "$workdir/ia-prof.json"
"$bin/janusctl" synthesize -profiles "$workdir/ia-prof.json" -step-ms 10 -o "$workdir/ia-bundle.json"
"$bin/janusctl" profile -workflow va -samples 300 -seed 8 -o "$workdir/va-prof.json"
"$bin/janusctl" synthesize -profiles "$workdir/va-prof.json" -step-ms 10 -o "$workdir/va-bundle.json"

echo "== assemble + validate the catalog (acme quota: burst 3, ~no refill)"
go run ./scripts/mkcatalog -ia "$workdir/ia-bundle.json" -va "$workdir/va-bundle.json" \
  -rate 0.001 -burst 3 -admin-key admin-secret -o "$workdir/catalog.json"
"$bin/janusctl" catalog validate -f "$workdir/catalog.json"

echo "== boot janusd with the catalog"
"$bin/janusd" -addr 127.0.0.1:0 -catalog "$workdir/catalog.json" -log-requests >"$workdir/janusd.log" 2>&1 &
janusd_pid=$!
base=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/.*control plane listening on \(.*\)/\1/p' "$workdir/janusd.log" | head -1)
  if [[ -n "$addr" ]]; then base="http://$addr"; break; fi
  kill -0 "$janusd_pid" 2>/dev/null || { cat "$workdir/janusd.log" >&2; fail "janusd died at boot"; }
  sleep 0.1
done
[[ -n "$base" ]] || fail "janusd never reported its listen address"
echo "   janusd at $base (pid $janusd_pid)"

curl -fsS "$base/v1/healthz" | grep -q '"generation":1' || fail "healthz generation != 1"
curl -fsS "$base/v1/healthz" | grep -q '"version":"e2e-smoke"' || fail "healthz lacks the ldflags build stamp"

decide() { # decide KEY WORKFLOW -> http status on stdout, body in $workdir/resp
  curl -s -o "$workdir/resp" -w '%{http_code}' -X POST "$base/v1/decide" \
    -H 'Content-Type: application/json' -H "X-API-Key: $1" \
    -d "{\"workflow\":\"$2\",\"suffix\":0,\"remaining_ms\":2900}"
}

echo "== decide as both tenants"
[[ $(decide acme-key ia) == 200 ]] || { cat "$workdir/resp" >&2; fail "acme decide"; }
grep -q '"millicores"' "$workdir/resp" || fail "acme decide body lacks millicores"
[[ $(decide globex-key va) == 200 ]] || { cat "$workdir/resp" >&2; fail "globex decide"; }
grep -q '"millicores"' "$workdir/resp" || fail "globex decide body lacks millicores"

echo "== tenant isolation and auth"
[[ $(decide acme-key va) == 404 ]] || fail "acme reached globex's workflow"
[[ $(decide wrong-key ia) == 401 ]] || fail "unknown key admitted"
grep -q '"code":"unauthorized"' "$workdir/resp" || fail "401 lacks the error envelope"

echo "== exhaust acme's quota into 429s"
saw429=0
for _ in $(seq 1 5); do
  status=$(decide acme-key ia)
  if [[ $status == 429 ]]; then
    saw429=1
    grep -q '"code":"quota_exceeded"' "$workdir/resp" || fail "429 lacks the envelope code"
  fi
done
[[ $saw429 == 1 ]] || fail "quota never produced a 429"
retry=$(curl -s -D - -o /dev/null -X POST "$base/v1/decide" \
  -H 'Content-Type: application/json' -H 'X-API-Key: acme-key' \
  -d '{"workflow":"ia","suffix":0,"remaining_ms":2900}' | tr -d '\r' | sed -n 's/^Retry-After: //p')
[[ -n "$retry" && "$retry" -ge 1 ]] || fail "429 without a Retry-After header"
echo "   429 with Retry-After: ${retry}s"

echo "== operator surface is admin-gated"
"$bin/janusctl" catalog push -f "$workdir/catalog.json" -server "$base" -key acme-key \
  && fail "tenant key pushed a catalog" || true

echo "== hot-reload over PUT /v1/catalog (quota raised)"
go run ./scripts/mkcatalog -ia "$workdir/ia-bundle.json" -va "$workdir/va-bundle.json" \
  -rate 100 -burst 100 -admin-key admin-secret -o "$workdir/catalog2.json"
"$bin/janusctl" catalog push -f "$workdir/catalog2.json" -server "$base" -key admin-secret \
  | tee "$workdir/push.out"
grep -q 'generation 2' "$workdir/push.out" || fail "push did not report generation 2"
grep -q 'acme: quota changed' "$workdir/push.out" || fail "push did not report the quota diff"
[[ $(decide acme-key ia) == 200 ]] || fail "raised quota still throttles"

echo "== hot-reload over SIGHUP"
cp "$workdir/catalog2.json" "$workdir/catalog.json"
kill -HUP "$janusd_pid"
for _ in $(seq 1 100); do
  if curl -fsS "$base/v1/healthz" | grep -q '"generation":3'; then break; fi
  sleep 0.1
done
curl -fsS "$base/v1/healthz" | grep -q '"generation":3' || fail "SIGHUP reload never landed"

echo "== metrics stream"
curl -fsS -H 'X-API-Key: admin-secret' "$base/v1/metrics?n=2&interval_ms=50" >"$workdir/metrics.ndjson"
[[ $(wc -l <"$workdir/metrics.ndjson") == 2 ]] || fail "metrics stream frame count"
grep -q '"tenant":"acme"' "$workdir/metrics.ndjson" || fail "metrics stream lacks tenant counters"

echo "== prometheus exposition"
curl -fsS -H 'X-API-Key: admin-secret' "$base/v1/prometheus" >"$workdir/prom.txt"
grep -q '# TYPE janusd_decisions_total counter' "$workdir/prom.txt" || fail "prometheus lacks the decisions counter"
grep -Eq 'janusd_decisions_total\{outcome="(hit|miss)",tenant="acme",workflow="ia"\}' "$workdir/prom.txt" || fail "prometheus lacks acme's decide counter"
grep -q 'janusd_build_info{version="e2e-smoke"} 1' "$workdir/prom.txt" || fail "prometheus lacks the build-info gauge"
# The request counters are a fixed route x status table resolved on
# first use: each decide status above must read its exact count.
for want in 'janusd_http_requests_total{path="/v1/decide",status="401"} 1' \
  'janusd_http_requests_total{path="/v1/decide",status="404"} 1' 'janusd_panics_total 0'; do
  grep -qxF "$want" "$workdir/prom.txt" || fail "prometheus lacks '$want'"
done
n429=$(sed -n 's|^janusd_http_requests_total{path="/v1/decide",status="429"} ||p' "$workdir/prom.txt")
[[ -n "$n429" && "$n429" -ge 1 ]] || fail "prometheus counts no decide 429"
"$bin/janusctl" metrics -server "$base" -key admin-secret -prom | grep -q 'janusd_http_requests_total' \
  || fail "janusctl metrics -prom lacks the http counter"
[[ $(curl -s -o /dev/null -w '%{http_code}' -H 'X-API-Key: acme-key' "$base/v1/prometheus") == 401 ]] \
  || fail "tenant key reached /v1/prometheus"

echo "== access log"
grep -q 'method=POST path=/v1/decide tenant=acme status=200' "$workdir/janusd.log" \
  || fail "-log-requests produced no access-log line for acme's decide"

echo "== drain shutdown"
kill -TERM "$janusd_pid"
wait "$janusd_pid" || fail "janusd exited non-zero on SIGTERM"
janusd_pid=""
grep -q 'drained and stopped' "$workdir/janusd.log" || { cat "$workdir/janusd.log" >&2; fail "no clean-drain log line"; }

echo "PASS: janusd e2e smoke"
