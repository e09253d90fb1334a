(* Arbitrary-precision signed integers: sign + little-endian base-2^30 limbs.
   Invariant: the limb array of a non-zero number has no trailing zero limb,
   and zero is represented with sign 0 and an empty limb array. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }
(* [sign] is -1, 0 or 1; limbs satisfy [0 <= limb < base]. *)

let zero = { sign = 0; mag = [||] }

(* Normalisation: drop trailing zero limbs, fix the sign of zero. *)
let make sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* [-n] overflows for [min_int], so compute the magnitude in Int64. *)
    let m = Int64.abs (Int64.of_int n) in
    let rec limbs m acc =
      if Int64.equal m 0L then List.rev acc
      else
        limbs
          (Int64.shift_right_logical m base_bits)
          (Int64.to_int (Int64.logand m (Int64.of_int base_mask)) :: acc)
    in
    make sign (Array.of_list (limbs m []))
  end

let one = of_int 1

let sign x = x.sign
let is_zero x = x.sign = 0

(* Compare magnitudes. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign >= 0 then cmp_mag x.mag y.mag
  else cmp_mag y.mag x.mag

let equal x y = compare x y = 0

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  r

(* Precondition: mag a >= mag b. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  r

let rec add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then make x.sign (add_mag x.mag y.mag)
  else begin
    match cmp_mag x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> make x.sign (sub_mag x.mag y.mag)
    | _ -> make y.sign (sub_mag y.mag x.mag)
  end

and sub x y = add x (neg y)

let succ x = add x one
let pred x = sub x one

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else begin
    let a = x.mag and b = y.mag in
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^30-1)^2 < 2^60; with carries it stays below 2^62,
           safe on 63-bit native ints. *)
        let t = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- t land base_mask;
        carry := t lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let t = r.(!k) + !carry in
        r.(!k) <- t land base_mask;
        carry := t lsr base_bits;
        incr k
      done
    done;
    make (x.sign * y.sign) r
  end

let nbits_mag a =
  let l = Array.length a in
  if l = 0 then 0
  else begin
    let top = a.(l - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    ((l - 1) * base_bits) + width top 0
  end

let testbit_mag a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* Binary long division on magnitudes: O(bits * limbs), plenty fast for the
   coefficient sizes reached by Fourier elimination on paper-scale inputs. *)
let divmod_mag a b =
  let nb = nbits_mag a in
  let q = Array.make (Array.length a) 0 in
  let r = ref zero in
  let b' = { sign = 1; mag = b } in
  for i = nb - 1 downto 0 do
    (* r := 2r + bit i of a *)
    let doubled = add !r !r in
    r := if testbit_mag a i then succ doubled else doubled;
    if cmp_mag !r.mag b >= 0 then begin
      r := sub !r b';
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
  done;
  (q, !r.mag)

let divmod x y =
  if y.sign = 0 then raise Division_by_zero
  else if x.sign = 0 then (zero, zero)
  else if cmp_mag x.mag y.mag < 0 then (zero, x)
  else begin
    let qm, rm = divmod_mag x.mag y.mag in
    let q = make (x.sign * y.sign) qm in
    let r = make x.sign rm in
    (q, r)
  end

let div x y = fst (divmod x y)

let fdiv x y =
  let q, r = divmod x y in
  if r.sign <> 0 && r.sign * y.sign < 0 then pred q else q

let fmod x y =
  let _, r = divmod x y in
  if r.sign <> 0 && r.sign * y.sign < 0 then add r y else r

let rec gcd_mag a b = if is_zero b then a else gcd_mag b (snd (divmod a b))

let gcd x y = gcd_mag (abs x) (abs y)

let lt x y = compare x y < 0
let le x y = compare x y <= 0
let gt x y = compare x y > 0
let ge x y = compare x y >= 0

let min x y = if le x y then x else y
let max x y = if ge x y then x else y

let to_int x =
  (* The magnitude of a native int needs at most 63 bits (for [min_int]);
     accumulate in Int64 and range-check. *)
  if nbits_mag x.mag > 63 then None
  else begin
    let v =
      Array.fold_right
        (fun limb acc -> Int64.logor (Int64.shift_left acc base_bits) (Int64.of_int limb))
        x.mag 0L
    in
    let signed = if x.sign < 0 then Int64.neg v else v in
    if Int64.compare signed (Int64.of_int max_int) > 0 then None
    else if Int64.compare signed (Int64.of_int min_int) < 0 then None
    else Some (Int64.to_int signed)
  end

let to_int_exn x =
  match to_int x with
  | Some n -> n
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let ten = of_int 10

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec digits v = if is_zero v then () else begin
      let q, r = divmod v ten in
      digits q;
      Buffer.add_char buf (Char.chr (Char.code '0' + to_int_exn r))
    end
    in
    digits (abs x);
    let s = Buffer.contents buf in
    if x.sign < 0 then "-" ^ s else s
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let v = ref zero in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    v := add (mul !v ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !v else !v

let to_bigint x = x
let pp fmt x = Format.pp_print_string fmt (to_string x)
