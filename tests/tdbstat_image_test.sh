#!/bin/sh
# tdbstat on a real image: builds one with examples/quickstart in a fresh
# directory, inspects it with `tdbstat --verify`, and checks that the scrub
# passes, that the report lists the root object, and that inspection left
# every image, secret and counter file byte-identical.
#
# Usage: tdbstat_image_test.sh <quickstart-binary> <tdbstat-binary>
set -eu
quickstart=$1
tdbstat=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
"$quickstart" >/dev/null
db=tdb-quickstart-data
files=$(find "$db" "$db.secret" "$db.counter" -type f | sort)
before=$(sha256sum $files)
rc=0
"$tdbstat" --verify "$db" "$db.secret" "$db.counter" >report.txt || rc=$?
if [ "$rc" -ne 0 ]; then
  cat report.txt
  echo "FAIL: tdbstat exited $rc" >&2
  exit 1
fi
if ! grep -q '^root object: ' report.txt; then
  cat report.txt
  echo "FAIL: no root-object line in the report" >&2
  exit 1
fi
after=$(sha256sum $(find "$db" "$db.secret" "$db.counter" -type f | sort))
if [ "$before" != "$after" ]; then
  echo "FAIL: inspection changed the image" >&2
  echo "before:" >&2; echo "$before" >&2
  echo "after:" >&2; echo "$after" >&2
  exit 1
fi
echo "tdbstat image test: OK ($(echo "$files" | wc -l) files unchanged)"
