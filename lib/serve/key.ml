(** Content-addressed cache keys. See the interface for the scheme. *)

let digest s = Digest.to_hex (Digest.string s)

(* [string_of_int]'s digits, without its per-call format parsing. A
   profile renders a few hundred ints and every request carrying one keys
   its predict stage this way, so on a warm (all-hit) request this
   rendering was most of the time. *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.chr (Char.code '0' + (n mod 10)))
  end

let profile (p : Costmodel.Profile.t) =
  let b = Buffer.create 256 in
  add_int b p.rounds;
  Buffer.add_char b ':';
  add_int b p.parent_block;
  Buffer.add_char b ':';
  Array.iter
    (fun s ->
      add_int b s;
      Buffer.add_char b ',')
    p.child_sizes;
  digest (Buffer.contents b)

let stage ~tag parts = tag ^ ":" ^ String.concat "/" parts
