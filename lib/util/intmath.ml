let rec gcd a b =
  if a < 0 || b < 0 then invalid_arg "Intmath.gcd: negative argument";
  if b = 0 then a else gcd b (a mod b)

let lcm a b =
  if a < 0 || b < 0 then invalid_arg "Intmath.lcm: negative argument";
  if a = 0 || b = 0 then 0 else a / gcd a b * b

let cdiv a b =
  if b <= 0 then invalid_arg "Intmath.cdiv: non-positive divisor";
  if a < 0 then invalid_arg "Intmath.cdiv: negative dividend";
  (a + b - 1) / b

let pbft_f n =
  if n < 1 then invalid_arg "Intmath.pbft_f: group must be non-empty";
  (n - 1) / 3

let pbft_quorum n = (n + pbft_f n + 2) / 2

let raft_f ng =
  if ng < 1 then invalid_arg "Intmath.raft_f: need at least one group";
  (ng - 1) / 2

let raft_quorum ng = raft_f ng + 1

let pow b e =
  if e < 0 then invalid_arg "Intmath.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e asr 1)
    else go acc (b * b) (e asr 1)
  in
  go 1 b e

let log2_ceil n =
  if n < 1 then invalid_arg "Intmath.log2_ceil: need n >= 1";
  let rec go k p = if p >= n then k else go (k + 1) (p * 2) in
  go 0 1

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Intmath.clamp: lo > hi";
  if x < lo then lo else if x > hi then hi else x
